//! `exacoll` command-line front end, exposed as a library so integration
//! tests can drive [`commands::dispatch`] without spawning the binary.

pub mod args;
pub mod commands;
pub mod launch;
pub mod repro;
