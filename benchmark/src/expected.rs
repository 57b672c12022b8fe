//! Answer pins: `expected.json` holds every workload's [`Answer`] at the
//! default seed, and a rep whose answer differs fails all its ops. The
//! answer is checked before any time is reported.
//!
//! Re-pin with `cargo run --release --manifest-path benchmark/Cargo.toml
//! -- pin > benchmark/expected.json` — in a change that does nothing
//! else, since moving a pin redefines what every later run is checked
//! against.

use gossip_sim::{EngineStats, SimMetrics};

use crate::json::{self, Json};
use crate::workloads::{Answer, NetTotals, Workload};

/// The seed the pins were taken at, and `run`'s default.
pub const DEFAULT_SEED: u64 = 1;

const PINS: &str = include_str!("../expected.json");

/// `answer` as a JSON object. The digest is written in hex: it uses all
/// 64 bits, which a JSON number (an `f64`) cannot hold.
pub fn answer_json(a: &Answer) -> String {
    format!(
        "{{\"complete\": {}, \"rounds\": {}, \"initiated\": {}, \"delivered\": {}, \"lost\": {}, \
         \"rejected\": {}, \"payload_units\": {}, \"stepped\": {}, \"woken\": {}, \
         \"event_rounds\": {}, \"skipped_rounds\": {}, \"peak_frontier\": {}, \
         \"digest\": \"{:016x}\", \"frames_sent\": {}, \"bytes_sent\": {}, \
         \"payload_bytes\": {}, \"snapshot_bytes\": {}, \"delta_frames\": {}, \
         \"snapshot_frames\": {}}}",
        a.complete,
        a.rounds,
        a.metrics.initiated,
        a.metrics.delivered,
        a.metrics.lost,
        a.metrics.rejected,
        a.metrics.payload_units,
        a.stats.stepped,
        a.stats.woken,
        a.stats.event_rounds,
        a.stats.skipped_rounds,
        a.stats.peak_frontier,
        a.digest,
        a.net.frames_sent,
        a.net.bytes_sent,
        a.net.payload_bytes,
        a.net.snapshot_bytes,
        a.net.delta_frames,
        a.net.snapshot_frames,
    )
}

/// The inverse of [`answer_json`]; `None` if a field is missing or not
/// a whole number.
pub fn answer_from_json(doc: &Json) -> Option<Answer> {
    let count = |key: &str| {
        let x = doc.get(key)?.as_f64()?;
        (x >= 0.0 && x.fract() == 0.0 && x < 9e15).then_some(x as u64)
    };
    Some(Answer {
        complete: doc.get("complete")? == &Json::Bool(true),
        rounds: count("rounds")?,
        metrics: SimMetrics {
            initiated: count("initiated")?,
            delivered: count("delivered")?,
            lost: count("lost")?,
            rejected: count("rejected")?,
            payload_units: count("payload_units")?,
        },
        stats: EngineStats {
            stepped: count("stepped")?,
            woken: count("woken")?,
            event_rounds: count("event_rounds")?,
            skipped_rounds: count("skipped_rounds")?,
            peak_frontier: usize::try_from(count("peak_frontier")?).ok()?,
        },
        digest: u64::from_str_radix(doc.get("digest")?.as_str()?, 16).ok()?,
        net: NetTotals {
            frames_sent: count("frames_sent")?,
            bytes_sent: count("bytes_sent")?,
            payload_bytes: count("payload_bytes")?,
            snapshot_bytes: count("snapshot_bytes")?,
            delta_frames: count("delta_frames")?,
            snapshot_frames: count("snapshot_frames")?,
        },
    })
}

/// The pinned answer of `workload` at [`DEFAULT_SEED`], if
/// `expected.json` has one.
pub fn pinned(workload: Workload) -> Option<Answer> {
    let doc = json::parse(PINS).expect("expected.json is valid JSON");
    answer_from_json(doc.get("workloads")?.get(workload.name())?)
}

/// Renders a whole `expected.json` from `(workload, answer)` pairs.
pub fn render(pins: &[(Workload, Answer)]) -> String {
    let rows: Vec<String> = pins
        .iter()
        .map(|(w, a)| format!("    \"{}\": {}", w.name(), answer_json(a)))
        .collect();
    format!(
        "{{\n  \"seed\": {DEFAULT_SEED},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::ALL;

    #[test]
    fn answers_round_trip_through_json() {
        let a = Answer {
            complete: true,
            rounds: 1_167_986,
            metrics: SimMetrics {
                initiated: 5,
                delivered: 4,
                lost: 1,
                rejected: 0,
                payload_units: 99,
            },
            stats: EngineStats {
                stepped: 27_036_076,
                woken: 3,
                event_rounds: 2,
                skipped_rounds: 1,
                peak_frontier: 96,
            },
            digest: 0xfedc_ba98_7654_3210,
            net: NetTotals {
                frames_sent: 262_144,
                bytes_sent: 47_185_920,
                payload_bytes: 34_603_008,
                snapshot_bytes: 34_603_008,
                delta_frames: 0,
                snapshot_frames: 262_144,
            },
        };
        let doc = json::parse(&render(&[(Workload::RingFlood, a.clone())])).expect("valid");
        let back = doc
            .get("workloads")
            .and_then(|w| w.get("ring_flood"))
            .and_then(answer_from_json);
        assert_eq!(back, Some(a));
    }

    /// The committed pins parse, cover every workload, and agree with
    /// the rows already committed in `BENCH_engine.json` and
    /// `BENCH_net.json` (and the issue's `geo_flood` measurement).
    #[test]
    fn committed_pins_cross_check_against_legacy_rows() {
        let pin = |w| pinned(w).unwrap_or_else(|| panic!("no pin for {}", Workload::name(w)));
        for w in ALL {
            assert!(pin(w).complete && pin(w).ops_failed() == 0);
        }
        let ring = pin(Workload::RingFlood);
        assert_eq!((ring.rounds, ring.stats.stepped), (1_167_986, 27_036_076));
        let geo = pin(Workload::GeoFlood);
        assert_eq!((geo.rounds, geo.stats.stepped), (883, 5_581_617));
        let (snap, delta) = (pin(Workload::SoakSnapshot), pin(Workload::SoakDelta));
        assert_eq!(snap.net.frames_sent, 262_144);
        assert_eq!(delta.net.frames_sent, 262_144);
        assert_eq!(snap.net.payload_bytes, 34_603_008);
        assert_eq!(delta.net.payload_bytes, 2_865_306);
        assert_eq!(delta.net.snapshot_bytes, snap.net.payload_bytes);
        assert_eq!(
            snap.outcome(),
            delta.outcome(),
            "delta mode changed the outcome"
        );
        assert_eq!(pin(Workload::StreamRlc).net, NetTotals::default());
    }
}
