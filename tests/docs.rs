//! The design documents' line budget: DESIGN.md and EXPERIMENTS.md
//! together never grow, and a change that shrinks them lowers the cap to
//! their new count, so the budget only falls.

/// DESIGN.md + EXPERIMENTS.md, in lines.
const CAP: usize = 3_865;

#[test]
fn design_and_experiments_stay_within_their_line_budget() {
    let lines = |text: &str| text.lines().count();
    let total = lines(include_str!("../DESIGN.md")) + lines(include_str!("../EXPERIMENTS.md"));
    assert!(
        total <= CAP,
        "DESIGN.md + EXPERIMENTS.md hold {total} lines, over the cap of {CAP}: \
         say it in fewer lines, or cut what is stale"
    );
    assert!(
        total == CAP,
        "DESIGN.md + EXPERIMENTS.md shrank to {total} lines: lower CAP in \
         tests/docs.rs to {total}, so the budget keeps what was cut"
    );
}
