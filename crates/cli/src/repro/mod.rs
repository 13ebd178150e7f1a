//! `exacoll repro <target|all>` — regenerate the paper's tables.
//!
//! One module per evaluation artifact of the paper; each produces
//! plain-text [`Table`]s with the same axes as the original figure, every
//! number priced through `exacoll_sim::cost` (`lower → to_trace →
//! simulate`). `EXACOLL_QUICK=1` shrinks node counts for smoke runs.
//!
//! | target     | paper artifact                                             |
//! |------------|------------------------------------------------------------|
//! | `table1`   | Table I — kernel/collective coverage                       |
//! | `fig07`    | Fig. 7 — k=2 generalization has no slowdown                 |
//! | `fig08`    | Fig. 8 — radix vs latency on Frontier (3 panels)            |
//! | `fig09`    | Fig. 9 — best-generalized speedup vs baselines (4 panels)   |
//! | `fig10`    | Fig. 10 — 1024-node scaling (3 panels)                      |
//! | `fig11`    | Fig. 11 — radix vs latency on Polaris (3 panels)            |
//! | `selection`| §VI-G — seeded selection table and its gain over the vendor |
//! | `models`   | Eqs. 1–14 — analytical model vs simulator                   |
//! | `ablation` | which modeled hardware mechanism carries which finding      |
//! | `alltoall` | extension: radix-generalized Bruck alltoall                 |
//! | `variance` | §VI-H — run-to-run variance under seeded noise              |

mod ablation;
mod alltoall;
mod fig07;
mod fig08;
mod fig09;
mod fig10;
mod fig11;
mod models;
mod selection;
mod table1;
mod variance;

use crate::args::Args;
use exacoll_json::Value;
use exacoll_sim::Table;
use std::path::Path;

/// Version tag of a results file.
pub const FORMAT: &str = "exacoll-repro/v1";

/// Where `repro` leaves its results files.
const RESULTS_DIR: &str = "results/repro";

/// A target's table builder: `quick` in, tables out.
pub type Build = fn(bool) -> Vec<Table>;

/// Every target with its builder, in the order `repro all` runs them.
pub const TARGETS: [(&str, Build); 11] = [
    ("table1", table1::run),
    ("fig07", fig07::run),
    ("fig08", fig08::run),
    ("fig09", fig09::run),
    ("fig10", fig10::run),
    ("fig11", fig11::run),
    ("selection", selection::run),
    ("models", models::run),
    ("ablation", ablation::run),
    ("alltoall", alltoall::run),
    ("variance", variance::run),
];

/// Whether to run the reduced-size smoke configuration
/// (`EXACOLL_QUICK=1`).
fn quick_mode() -> bool {
    std::env::var("EXACOLL_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// What `repro` prints for a target's tables: each rendered table followed
/// by a blank line.
pub fn render(tables: &[Table]) -> String {
    tables.iter().map(|t| t.render() + "\n").collect()
}

/// Write `<dir>/<target>.json`: the one results shape every target shares.
pub fn emit(dir: &Path, target: &str, quick: bool, tables: &[Table]) -> Result<(), String> {
    let doc = Value::obj(vec![
        ("format", Value::Str(FORMAT.into())),
        ("target", Value::Str(target.into())),
        ("quick", Value::Bool(quick)),
        (
            "tables",
            Value::Arr(tables.iter().map(Table::to_json).collect()),
        ),
    ]);
    let path = dir.join(format!("{target}.json"));
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::fs::write(&path, doc.pretty() + "\n")
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("repro: {target} -> {}", path.display());
    Ok(())
}

/// Run one target or all of them: tables to stdout (and nothing else, so
/// the output diffs against a golden), results files under `results/repro`.
pub fn run(args: &Args) -> Result<(), String> {
    let names = || TARGETS.map(|(name, _)| name).join("|");
    let which = args
        .positional()
        .ok_or_else(|| format!("usage: exacoll repro <{}|all>", names()))?;
    let selected: Vec<_> = TARGETS
        .iter()
        .filter(|(name, _)| which == "all" || which == *name)
        .collect();
    if selected.is_empty() {
        return Err(format!(
            "unknown repro target `{which}` (expected {}|all)",
            names()
        ));
    }
    let quick = quick_mode();
    for (name, build) in selected {
        eprintln!("repro: {name} ...");
        let tables = build(quick);
        print!("{}", render(&tables));
        emit(Path::new(RESULTS_DIR), name, quick, &tables)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_writes_one_parseable_shape() {
        let dir = std::env::temp_dir().join(format!("exacoll-repro-{}", std::process::id()));
        let tables = table1::run(true);
        emit(&dir, "table1", true, &tables).unwrap();
        let text = std::fs::read_to_string(dir.join("table1.json")).unwrap();
        let v = exacoll_json::parse(&text).unwrap();
        assert_eq!(v.req("format").unwrap().as_str().unwrap(), FORMAT);
        assert_eq!(v.req("target").unwrap().as_str().unwrap(), "table1");
        let parsed = v.req("tables").unwrap().as_arr().unwrap();
        assert_eq!(parsed.len(), tables.len());
        // Table I's comma-separated cell survives as one cell.
        let first = parsed[0].req("rows").unwrap().as_arr().unwrap()[0]
            .as_arr()
            .unwrap();
        assert_eq!(first.len(), 3);
        assert!(first[2].as_str().unwrap().contains(", "));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
