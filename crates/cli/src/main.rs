//! `exacoll` — command-line front end.
//!
//! ```text
//! exacoll sweep    --machine frontier --nodes 128 --ppn 1 --op reduce [--sizes 8,1024] [--max-k 16]
//! exacoll radix    --machine frontier --nodes 128 --ppn 1 --op allreduce --size 65536 [--max-k 32]
//! exacoll time     --machine polaris  --nodes 64  --ppn 4 --op bcast --alg kring:4 --size 1048576
//! exacoll profile  allreduce --alg recmult,4 --ranks 16 [--chrome trace.json]
//! exacoll repro    fig08          # or table1, fig07..fig11, selection, ..., all
//! exacoll machines
//! ```
//!
//! Machines are the simulated presets of `exacoll-sim`; all latencies are
//! virtual microseconds.

use exacoll_cli::commands;
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
