//! Table I: base kernel → generalized kernel → collective operations.
//!
//! Rendered from the live registry, and cross-checked against the actual
//! dispatch (every listed pair must be runnable).

use exacoll_core::registry::{table_i, unique_candidates};
use exacoll_sim::Table;

/// Render Table I.
pub fn run(_quick: bool) -> Vec<Table> {
    let mut t = Table::new(
        "Table I  generalized kernels and the collectives they implement",
        &["base kernel", "generalized kernel", "collective operations"],
    );
    let mut total = 0;
    for (base, general, ops) in table_i() {
        let names: Vec<String> = ops
            .iter()
            .map(|o| {
                let n = o.to_string();
                let mut c = n.chars();
                let head = c.next().unwrap().to_ascii_uppercase();
                format!("MPI_{head}{}", c.as_str())
            })
            .collect();
        total += ops.len();
        t.row(vec![
            base.to_string(),
            general.to_string(),
            names.join(", "),
        ]);
    }
    t.row(vec![
        String::new(),
        "total implementations".into(),
        total.to_string(),
    ]);

    let mut cover = Table::new(
        "Registry coverage: distinct candidate schedules per collective (p = 128, k <= 16)",
        &["collective", "candidates"],
    );
    for op in exacoll_core::CollectiveOp::ALL {
        let names: Vec<String> = unique_candidates(op, 128, 16)
            .iter()
            .map(|a| a.to_string())
            .collect();
        cover.row(vec![op.to_string(), names.join(" ")]);
    }
    vec![t, cover]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_with_ten_implementations() {
        let tables = run(false);
        let text = tables[0].render();
        assert!(text.contains("k-nomial"));
        assert!(text.contains("recursive multiplying"));
        assert!(text.contains("k-ring"));
        assert!(text.contains("10"));
    }
}
