//! Minimal flag parsing (no external dependency needed for a `--key value`
//! grammar).

use exacoll_core::CollectiveOp;
use exacoll_sim::Machine;
use std::collections::HashMap;

/// Parsed `--key value` flags plus the leading subcommand and an optional
/// single positional operand (e.g. `profile allreduce --ranks 16`).
#[derive(Debug)]
pub struct Args {
    /// The subcommand word.
    pub command: String,
    /// The single bare operand, if any.
    positional: Option<String>,
    flags: HashMap<String, String>,
}

impl Args {
    /// Parse `argv` (without the program name).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let command = argv
            .first()
            .ok_or_else(|| "missing subcommand".to_string())?
            .clone();
        let mut flags = HashMap::new();
        let mut positional: Option<String> = None;
        let mut i = 1;
        while i < argv.len() {
            let word = &argv[i];
            match word.strip_prefix("--") {
                Some(key) => {
                    let value = argv
                        .get(i + 1)
                        .ok_or_else(|| format!("flag --{key} needs a value"))?;
                    flags.insert(key.to_string(), value.clone());
                    i += 2;
                }
                // At most one bare operand, anywhere among the flags
                // (`launch --ranks 8 allreduce` ≡ `launch allreduce
                // --ranks 8`); a second bare token is a parse error.
                None => {
                    if let Some(first) = &positional {
                        return Err(format!(
                            "unexpected operand `{word}` (already have `{first}`)"
                        ));
                    }
                    positional = Some(word.clone());
                    i += 1;
                }
            }
        }
        Ok(Args {
            command,
            positional,
            flags,
        })
    }

    /// The single bare operand, if any.
    pub fn positional(&self) -> Option<&str> {
        self.positional.as_deref()
    }

    /// A required string flag.
    pub fn req(&self, key: &str) -> Result<&str, String> {
        self.flags
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional string flag.
    pub fn opt(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A required integer flag.
    pub fn req_usize(&self, key: &str) -> Result<usize, String> {
        self.req(key)?
            .parse()
            .map_err(|_| format!("--{key} must be an integer"))
    }

    /// An optional integer flag with a default.
    pub fn opt_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.opt(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} must be an integer")),
        }
    }

    /// The machine described by `--machine/--nodes/--ppn`.
    pub fn machine(&self) -> Result<Machine, String> {
        let name = self.req("machine")?;
        let nodes = self.req_usize("nodes")?;
        let ppn = self.opt_usize("ppn", 1)?;
        parse_machine(name, nodes, ppn)
    }

    /// The collective named by `--op`.
    pub fn op(&self) -> Result<CollectiveOp, String> {
        parse_op(self.req("op")?)
    }

    /// Comma-separated `--sizes` (bytes), or the OSU ladder.
    pub fn sizes(&self) -> Result<Vec<usize>, String> {
        match self.opt("sizes") {
            None => Ok(exacoll_sim::report::osu_sizes()),
            Some(list) => list
                .split(',')
                .map(|s| parse_size(s.trim()).ok_or_else(|| format!("bad size `{s}` in --sizes")))
                .collect(),
        }
    }
}

/// Parse a machine preset name.
pub fn parse_machine(name: &str, nodes: usize, ppn: usize) -> Result<Machine, String> {
    match name {
        "frontier" => Ok(Machine::frontier(nodes, ppn)),
        "polaris" => Ok(Machine::polaris(nodes, ppn)),
        "aurora" => Ok(Machine::aurora(nodes, ppn)),
        "testbed" => Ok(Machine::testbed(nodes, ppn, 2)),
        other => Err(format!(
            "unknown machine `{other}` (expected frontier|polaris|aurora|testbed)"
        )),
    }
}

/// Parse a collective name (the grammar lives in [`exacoll_core::spec`],
/// shared with the launch worker argv and replay artifact headers).
pub use exacoll_core::spec::{alg_to_spec, parse_alg, parse_op, ALG_SPECS};

/// Execution backend selected by `--backend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-process threaded runtime (real data, shared memory).
    Thread,
    /// Discrete-event simulator (virtual α-β-γ time).
    Sim,
    /// Multi-process TCP runtime (real data, real sockets).
    Tcp,
    /// Thread and sim together, for side-by-side comparison.
    Both,
}

/// The accepted `--backend` values, for error messages.
pub const BACKEND_NAMES: &str = "thread|sim|tcp|both";

/// Parse a `--backend` value.
pub fn parse_backend(name: &str) -> Result<Backend, String> {
    match name {
        "thread" => Ok(Backend::Thread),
        "sim" => Ok(Backend::Sim),
        "tcp" => Ok(Backend::Tcp),
        "both" => Ok(Backend::Both),
        other => Err(format!(
            "unknown backend `{other}` (expected {BACKEND_NAMES})"
        )),
    }
}

/// Parse "8", "64K", "64KB", "4M", "4MB".
pub fn parse_size(s: &str) -> Option<usize> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = if let Some(d) = lower.strip_suffix("mb").or(lower.strip_suffix('m')) {
        (d.to_string(), 1 << 20)
    } else if let Some(d) = lower.strip_suffix("kb").or(lower.strip_suffix('k')) {
        (d.to_string(), 1024)
    } else if let Some(d) = lower.strip_suffix('b') {
        (d.to_string(), 1)
    } else {
        (lower, 1)
    };
    digits.trim().parse::<usize>().ok()?.checked_mul(mult)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags() {
        let a = Args::parse(&argv("sweep --machine frontier --nodes 16 --op reduce")).unwrap();
        assert_eq!(a.command, "sweep");
        assert_eq!(a.req("machine").unwrap(), "frontier");
        assert_eq!(a.req_usize("nodes").unwrap(), 16);
        assert_eq!(a.opt_usize("ppn", 1).unwrap(), 1);
        assert!(a.req("missing").is_err());
        let m = a.machine().unwrap();
        assert_eq!(m.ranks(), 16);
        assert_eq!(a.op().unwrap(), CollectiveOp::Reduce);
    }

    #[test]
    fn rejects_malformed() {
        assert!(Args::parse(&argv("")).is_err());
        assert!(Args::parse(&argv("sweep nodes 16")).is_err());
        assert!(Args::parse(&argv("sweep --nodes")).is_err());
    }

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("8"), Some(8));
        assert_eq!(parse_size("64K"), Some(65536));
        assert_eq!(parse_size("64KB"), Some(65536));
        assert_eq!(parse_size("4MB"), Some(4 << 20));
        assert_eq!(parse_size("16b"), Some(16));
        assert_eq!(parse_size("x"), None);
    }

    // The alg/op grammar itself is tested in `exacoll_core::spec`; here we
    // only assert the re-export is wired (errors still carry the spec list).
    #[test]
    fn unknown_alg_lists_accepted_specs() {
        let err = parse_alg("wat").unwrap_err();
        assert!(err.contains("recmult:K"), "missing spec list: {err}");
        assert!(err.contains("ring"), "missing spec list: {err}");
        assert!(err.contains("hier:PPN:K"), "missing spec list: {err}");
    }

    #[test]
    fn positional_operand() {
        let a = Args::parse(&argv("profile allreduce --ranks 16")).unwrap();
        assert_eq!(a.command, "profile");
        assert_eq!(a.positional(), Some("allreduce"));
        assert_eq!(a.req_usize("ranks").unwrap(), 16);
        // A second bare token is still an error.
        assert!(Args::parse(&argv("profile allreduce bcast")).is_err());
        let b = Args::parse(&argv("machines")).unwrap();
        assert_eq!(b.positional(), None);
    }

    #[test]
    fn positional_operand_after_flags() {
        // The acceptance-grammar form: operand after the flags.
        let a = Args::parse(&argv("launch --ranks 8 --backend tcp allreduce --size 64K")).unwrap();
        assert_eq!(a.command, "launch");
        assert_eq!(a.positional(), Some("allreduce"));
        assert_eq!(a.req("backend").unwrap(), "tcp");
        assert_eq!(a.req_usize("ranks").unwrap(), 8);
    }

    #[test]
    fn backends_parse_and_unknowns_list_accepted_values() {
        assert_eq!(parse_backend("thread").unwrap(), Backend::Thread);
        assert_eq!(parse_backend("sim").unwrap(), Backend::Sim);
        assert_eq!(parse_backend("tcp").unwrap(), Backend::Tcp);
        assert_eq!(parse_backend("both").unwrap(), Backend::Both);
        let err = parse_backend("udp").unwrap_err();
        assert!(err.contains("thread|sim|tcp|both"), "got: {err}");
    }

    #[test]
    fn machines_parse() {
        assert!(parse_machine("frontier", 4, 2).is_ok());
        assert!(parse_machine("aurora", 4, 1).is_ok());
        assert!(parse_machine("summit", 4, 1).is_err());
    }
}
