//! No-panic property of the `.scn` front end: every shipped spec in
//! `scenarios/`, mutated by truncation, token replacement, line deletion
//! and line duplication, must make `Catalog::from_scn_str` return — `Ok`
//! or a positioned `Err`, never a panic — and every catalog it accepts
//! must build into workloads whose trace generators run.

use proptest::prelude::*;
use sim_types::TraceSource;
use workloads::{Catalog, Workload};

const SPECS: [(&str, &str); 3] = [
    (
        "churn-colo.scn",
        include_str!("../../../scenarios/churn-colo.scn"),
    ),
    (
        "diurnal-tide.scn",
        include_str!("../../../scenarios/diurnal-tide.scn"),
    ),
    (
        "mix-quarters.scn",
        include_str!("../../../scenarios/mix-quarters.scn"),
    ),
];

/// Replacement tokens: out-of-range numbers, non-numbers, section headers
/// and separators in places the grammar does not expect them.
const NASTY: [&str; 18] = [
    "",
    "0",
    "-1",
    "4294967296",
    "18446744073709551616",
    "1e308",
    "-0.0",
    "nan",
    "inf",
    "=",
    "#",
    "[scenario]",
    "[phase]",
    "[tenant]",
    "mt",
    "hotspot",
    "weight=0",
    "ops=0",
];

/// Applies one edit: `op` picks truncation, token replacement, line
/// deletion or line duplication; `a` and `b` pick the position and the
/// replacement (a [`NASTY`] token or another token of the same file).
fn mutate(text: &str, op: u8, a: u64, b: u64) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    if op == 0 || lines.is_empty() {
        let mut cut = (a as usize) % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        return text[..cut].to_owned();
    }
    let line = (a as usize) % lines.len();
    match op {
        1 => {
            let tokens: Vec<&str> = text.split_whitespace().collect();
            let replacement = if b.is_multiple_of(2) || tokens.is_empty() {
                NASTY[(b as usize >> 1) % NASTY.len()]
            } else {
                tokens[(b as usize >> 1) % tokens.len()]
            };
            let mut words: Vec<&str> = lines[line].split(' ').collect();
            let at = (b as usize >> 16) % words.len();
            words[at] = replacement;
            lines[line] = words.join(" ");
        }
        2 => {
            lines.remove(line);
        }
        _ => lines.insert(line, lines[line].clone()),
    }
    lines.join("\n") + "\n"
}

proptest! {
    #[test]
    fn mutated_specs_never_panic_the_parser_or_the_builder(
        file in 0usize..SPECS.len(),
        edits in proptest::collection::vec((0u8..4, any::<u64>(), any::<u64>()), 1..3),
    ) {
        let (name, original) = SPECS[file];
        let mut text = original.to_owned();
        for (op, a, b) in edits {
            text = mutate(&text, op, a, b);
        }
        if let Ok(cat) = Catalog::from_scn_str(&text, name) {
            for s in cat.iter() {
                let mut wl = Workload::build(&s.workload, 4, 1024, 2020);
                for core in 0..wl.cores() {
                    for _ in 0..64 {
                        prop_assert!(wl.source_mut(core).next_op().is_some());
                    }
                }
            }
        }
    }
}

#[test]
fn shipped_specs_parse_unmutated() {
    for (name, text) in SPECS {
        let cat = Catalog::from_scn_str(text, name).unwrap();
        assert!(!cat.is_empty(), "{name}");
    }
}
