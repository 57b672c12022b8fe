//! The mutation suite: proof the checker has teeth.
//!
//! Each test checks one shipped node with one deliberately injected
//! bug, built by the same model constructor as the shipped model
//! (`gossip_mc::mutants`), and asserts the checker (a) finds a
//! violation, (b) of the expected property, (c) with a counterexample
//! whose action script *replays* to the same violation on a fresh
//! stepper, and (d) whose serialized case ends in a golden-trace
//! style summary line.

use gossip_mc::mutants::{self, MutantRun};
use gossip_mc::RoundAction;

fn assert_killed(run: &MutantRun) {
    let cx = run
        .outcome
        .violation
        .as_ref()
        .unwrap_or_else(|| panic!("mutant {} was not caught", run.name));
    assert_eq!(
        cx.property, run.property,
        "mutant {} caught by the wrong property",
        run.name
    );
    assert!(
        run.replay_confirmed,
        "mutant {}: counterexample did not replay",
        run.name
    );
    assert!(run.killed());
    // The serialized case is a golden-trace style document: action
    // script, violation line, and the exact trace summary format.
    assert!(cx.case.contains("violation at round"), "case:\n{}", cx.case);
    let last = cx.case.lines().last().unwrap();
    for field in [
        "rounds=",
        "initiated=",
        "delivered=",
        "lost=",
        "rejected=",
        "payload_units=",
        "fingerprint=",
    ] {
        assert!(
            last.contains(field),
            "mutant {}: case summary line missing {field}: {last}",
            run.name
        );
    }
    // Minimality comes from BFS order: the action script never has
    // more rounds than the violation round + 1.
    assert!(
        run.outcome.violation.as_ref().unwrap().actions.len() as u64 <= cx.round + 1,
        "mutant {}: counterexample longer than its violation round",
        run.name
    );
}

#[test]
fn early_stop_mutant_is_killed() {
    assert_killed(&mutants::early_stop());
}

#[test]
fn deaf_mutant_is_killed() {
    assert_killed(&mutants::deaf());
}

#[test]
fn eager_rumor_mutant_is_killed() {
    assert_killed(&mutants::eager_rumor());
}

#[test]
fn fat_orientation_mutant_is_killed() {
    assert_killed(&mutants::fat_orientation());
}

#[test]
fn stall_mutant_is_killed() {
    assert_killed(&mutants::stall());
}

#[test]
fn double_apply_mutant_is_killed() {
    assert_killed(&mutants::double_apply());
}

#[test]
fn phantom_rumor_mutant_is_killed() {
    assert_killed(&mutants::phantom_rumor());
}

#[test]
fn suite_runs_every_mutant() {
    let runs = mutants::run_all();
    let names: Vec<&str> = runs.iter().map(|r| r.name).collect();
    assert_eq!(
        names,
        [
            "early-stop",
            "deaf",
            "eager-rumor",
            "fat-orientation",
            "stall",
            "double-apply",
            "phantom-rumor"
        ]
    );
    assert!(runs.iter().all(MutantRun::killed));
}

/// One mutant's pinned counterexample.
struct Pin {
    name: &'static str,
    property: &'static str,
    round: u64,
    /// The action script: this many rounds with no fault and no
    /// choice branch.
    quiet_steps: usize,
    case: &'static str,
}

/// Every mutant's counterexample, byte for byte: the violated
/// property, the violation round, the full action script and the
/// serialized case. A refactor of the models or the mutants must
/// leave all of them unchanged.
const PINS: &[Pin] = &[
    Pin {
        name: "early-stop",
        property: "lemma18-no-early-stop",
        round: 6,
        quiet_steps: 7,
        case: concat!(
            "# mc counterexample: model=lemma18[full-except-v0:v2][early-stop] prop=lemma18-no-early-stop\n",
            "step 0: fault=none choices=[]\n",
            "step 1: fault=none choices=[]\n",
            "step 2: fault=none choices=[]\n",
            "step 3: fault=none choices=[]\n",
            "step 4: fault=none choices=[]\n",
            "step 5: fault=none choices=[]\n",
            "step 6: fault=none choices=[]\n",
            "violation at round 6: v0 decided terminate but the centralized check fails\n",
            "rounds=6 initiated=24 delivered=24 lost=0 rejected=0 payload_units=48 fingerprint=f3f7ebc960eb3d9c\n",
        ),
    },
    Pin {
        name: "deaf",
        property: "same-round-termination",
        round: 6,
        quiet_steps: 7,
        case: concat!(
            "# mc counterexample: model=lemma18[full-except-v0:v1][deaf] prop=same-round-termination\n",
            "step 0: fault=none choices=[]\n",
            "step 1: fault=none choices=[]\n",
            "step 2: fault=none choices=[]\n",
            "step 3: fault=none choices=[]\n",
            "step 4: fault=none choices=[]\n",
            "step 5: fault=none choices=[]\n",
            "step 6: fault=none choices=[]\n",
            "violation at round 6: split decision at round 6: v0=Some(false) but v2=true\n",
            "rounds=6 initiated=24 delivered=24 lost=0 rejected=0 payload_units=48 fingerprint=14b1a62250489a33\n",
        ),
    },
    Pin {
        name: "eager-rumor",
        property: "latency-respected",
        round: 0,
        quiet_steps: 1,
        case: concat!(
            "# mc counterexample: model=rr-flood[eager-rumor] prop=latency-respected\n",
            "step 0: fault=none choices=[]\n",
            "violation at round 0: rumor v2 reached v0 at round 0 but is 2 away\n",
            "rounds=0 initiated=0 delivered=0 lost=0 rejected=0 payload_units=0 fingerprint=eba5200a6a034a2d\n",
        ),
    },
    Pin {
        name: "fat-orientation",
        property: "spanner-out-degree",
        round: 2,
        quiet_steps: 3,
        case: concat!(
            "# mc counterexample: model=spanner-custom[fat-orientation] prop=spanner-out-degree\n",
            "step 0: fault=none choices=[]\n",
            "step 1: fault=none choices=[]\n",
            "step 2: fault=none choices=[]\n",
            "violation at round 2: exchange v0→v2 is not an oriented spanner arc\n",
            "rounds=2 initiated=8 delivered=8 lost=0 rejected=0 payload_units=16 fingerprint=6bca8010f320b531\n",
        ),
    },
    Pin {
        name: "stall",
        property: "termination",
        round: 3,
        quiet_steps: 4,
        case: concat!(
            "# mc counterexample: model=rr-flood[stall] prop=termination\n",
            "step 0: fault=none choices=[]\n",
            "step 1: fault=none choices=[]\n",
            "step 2: fault=none choices=[]\n",
            "step 3: fault=none choices=[]\n",
            "violation at round 3: fault-free run hit the round bound (3) without reaching the goal\n",
            "rounds=3 initiated=0 delivered=0 lost=0 rejected=0 payload_units=0 fingerprint=ca9c13b6baa14ca4\n",
        ),
    },
    Pin {
        name: "double-apply",
        property: "at-most-once-delivery",
        round: 1,
        quiet_steps: 2,
        case: concat!(
            "# mc counterexample: model=rr-flood[double-apply] prop=at-most-once-delivery\n",
            "step 0: fault=none choices=[]\n",
            "step 1: fault=none choices=[]\n",
            "violation at round 1: 12 exchange applications for 3 deliveries (expected 6)\n",
            "rounds=1 initiated=3 delivered=3 lost=0 rejected=0 payload_units=6 fingerprint=34adec49a2a4d6de\n",
        ),
    },
    Pin {
        name: "phantom-rumor",
        property: "no-phantom-rumor",
        round: 0,
        quiet_steps: 1,
        case: concat!(
            "# mc counterexample: model=rr-stream[phantom-rumor] prop=no-phantom-rumor\n",
            "step 0: fault=none choices=[]\n",
            "violation at round 0: v0 holds rumor 0 it neither injected nor received\n",
            "rounds=0 initiated=0 delivered=0 lost=0 rejected=0 payload_units=0 fingerprint=95c7d2696b18c72c\n",
        ),
    },
];

#[test]
fn counterexamples_are_pinned() {
    let runs = mutants::run_all();
    assert_eq!(runs.len(), PINS.len());
    for (run, pin) in runs.iter().zip(PINS) {
        assert_eq!(run.name, pin.name);
        let cx = run
            .outcome
            .violation
            .as_ref()
            .unwrap_or_else(|| panic!("mutant {} was not caught", run.name));
        assert_eq!(cx.property, pin.property, "mutant {}", pin.name);
        assert_eq!(cx.round, pin.round, "mutant {}", pin.name);
        let quiet = RoundAction {
            fault: None,
            choices: Vec::new(),
        };
        assert_eq!(
            cx.actions,
            vec![quiet; pin.quiet_steps],
            "mutant {}",
            pin.name
        );
        assert_eq!(cx.case, pin.case, "mutant {}", pin.name);
    }
}
