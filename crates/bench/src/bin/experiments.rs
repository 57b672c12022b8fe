//! CLI for the experiment harness.
//!
//! ```sh
//! cargo run --release -p gossip-bench --bin experiments -- all
//! cargo run --release -p gossip-bench --bin experiments -- e3 e12
//! cargo run --release -p gossip-bench --bin experiments -- --markdown all
//! cargo run --release -p gossip-bench --bin experiments -- --csv e3
//! ```

use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--markdown");
    let csv = args.iter().any(|a| a == "--csv");
    let selected: Vec<String> = args
        .into_iter()
        .filter(|a| a != "--markdown" && a != "--csv")
        .map(|a| a.to_lowercase())
        .collect();
    let registry = gossip_bench::registry();

    let known = |a: &String| a == "all" || registry.iter().any(|(id, _, _)| id == a);
    if selected.is_empty() || !selected.iter().all(known) {
        eprintln!("usage: experiments [--markdown | --csv] <all | e1 … e24>\n");
        eprintln!("experiments:");
        for (id, what, _) in &registry {
            eprintln!("  {id:<4} {what}");
        }
        std::process::exit(2);
    }

    let run_all = selected.iter().any(|a| a == "all");
    for (id, what, runner) in &registry {
        if !run_all && !selected.iter().any(|a| a == id) {
            continue;
        }
        eprintln!("running {id}: {what} …");
        let start = Instant::now();
        let table = runner();
        let elapsed = start.elapsed();
        if markdown {
            println!("{}", table.to_markdown());
        } else if csv {
            println!("{}", table.to_csv());
        } else {
            println!("{table}");
        }
        eprintln!("{id} finished in {elapsed:.2?}\n");
    }
}
