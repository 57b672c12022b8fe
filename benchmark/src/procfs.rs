//! Process and host facts read from `/proc`, and the provenance block
//! every result file carries. Each reader returns 0 (or `"unknown"`)
//! where its file is missing, so the benchmark still runs off Linux —
//! it just reports no memory, CPU or thread numbers there.

use std::process::Command;

/// Linux reports `/proc/<pid>/stat` CPU times in `USER_HZ` ticks, which
/// is 100 on every supported architecture.
const TICKS_PER_SECOND: f64 = 100.0;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The first number after `key` (e.g. `"VmHWM:"`) in
/// `/proc/<pid>/status`-shaped `text`; 0 if absent.
pub fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `(user, system)` CPU seconds from `/proc/<pid>/stat`-shaped `text`:
/// fields 14 and 15, counted after the parenthesised command name
/// (which may itself contain spaces). `(0, 0)` if malformed.
pub fn stat_cpu_seconds(text: &str) -> (f64, f64) {
    let Some((_, after_comm)) = text.rsplit_once(')') else {
        return (0.0, 0.0);
    };
    // `after_comm` starts at field 3 (state); utime and stime are
    // fields 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    let (user, system) = (ticks(), ticks());
    (user / TICKS_PER_SECOND, system / TICKS_PER_SECOND)
}

/// The 1-minute load average from `/proc/loadavg`-shaped `text`.
pub fn loadavg_1m(text: &str) -> f64 {
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// Current OS thread count of this process.
pub fn threads() -> u64 {
    status_field(&read("/proc/self/status"), "Threads:")
}

/// Involuntary context switches of the main thread so far.
pub fn ctx_switches_involuntary() -> u64 {
    status_field(&read("/proc/self/status"), "nonvoluntary_ctxt_switches:")
}

/// `(user, system)` CPU seconds this process (all threads) has used.
pub fn cpu_seconds() -> (f64, f64) {
    stat_cpu_seconds(&read("/proc/self/stat"))
}

/// The host's 1-minute load average.
pub fn loadavg() -> f64 {
    loadavg_1m(&read("/proc/loadavg"))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where and on what a result was measured: the fields ROADMAP item 1
/// lists as recorded nowhere in the legacy `BENCH_*.json` files.
#[derive(Clone, Debug)]
pub struct Provenance {
    /// `git rev-parse HEAD` of the benchmark's checkout, or `unknown`
    /// (the driver's checkout is not a git repository).
    pub git_commit: String,
    /// Whether `git status --porcelain` listed anything.
    pub git_dirty: bool,
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// `rustc -V`.
    pub rustc: String,
    /// `/proc/sys/kernel/osrelease`.
    pub kernel: String,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
}

impl Provenance {
    /// Collects the block; runs `git` and `rustc` as child processes and
    /// waits for each.
    pub fn collect() -> Provenance {
        let dir = env!("CARGO_MANIFEST_DIR");
        let unknown = || "unknown".to_string();
        let status = command_line("git", &["-C", dir, "status", "--porcelain"]);
        let cpuinfo = read("/proc/cpuinfo");
        let cpu_model = cpuinfo
            .lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split_once(':'))
            .map_or_else(unknown, |(_, v)| v.trim().to_string());
        let kernel = read("/proc/sys/kernel/osrelease").trim().to_string();
        Provenance {
            git_commit: command_line("git", &["-C", dir, "rev-parse", "HEAD"])
                .unwrap_or_else(unknown),
            git_dirty: status.is_some_and(|s| !s.is_empty()),
            nproc: std::thread::available_parallelism().map_or(0, std::num::NonZero::get),
            rustc: command_line("rustc", &["-V"]).unwrap_or_else(unknown),
            kernel: if kernel.is_empty() { unknown() } else { kernel },
            cpu_model,
        }
    }

    /// The block as a JSON object.
    pub fn to_json(&self) -> String {
        use crate::json::quote;
        format!(
            "{{\"git_commit\": {}, \"git_dirty\": {}, \"nproc\": {}, \"rustc\": {}, \
             \"kernel\": {}, \"cpu_model\": {}}}",
            quote(&self.git_commit),
            self.git_dirty,
            self.nproc,
            quote(&self.rustc),
            quote(&self.kernel),
            quote(&self.cpu_model),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const STATUS: &str = "Name:\tx\nVmHWM:\t  392184 kB\nThreads:\t3\n\
                          voluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t7\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(status_field(STATUS, "VmHWM:"), 392_184);
        assert_eq!(status_field(STATUS, "Threads:"), 3);
        assert_eq!(status_field(STATUS, "nonvoluntary_ctxt_switches:"), 7);
    }

    #[test]
    fn stat_cpu_skips_a_command_name_with_spaces_and_parens() {
        let stat = "42 (a b) c) R 1 42 42 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 1 0 5 1 1";
        assert_eq!(stat_cpu_seconds(stat), (2.5, 0.5));
    }

    /// A missing or empty file parses to zeros, never a panic.
    #[test]
    fn missing_files_read_as_zero() {
        let gone = read("/nonexistent/benchmark/file");
        assert_eq!(gone, "");
        assert_eq!(status_field(&gone, "VmHWM:"), 0);
        assert_eq!(stat_cpu_seconds(&gone), (0.0, 0.0));
        assert_eq!(loadavg_1m(&gone), 0.0);
        assert_eq!(stat_cpu_seconds("1 (x) R 2"), (0.0, 0.0));
        assert_eq!(status_field("VmHWM:\tgarbage kB\n", "VmHWM:"), 0);
    }

    #[test]
    fn loadavg_parses() {
        assert_eq!(loadavg_1m("0.39 0.41 0.31 1/120 4567\n"), 0.39);
    }
}
