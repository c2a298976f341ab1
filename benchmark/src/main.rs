//! Command-line entry of the sleepwatch benchmark; see `README.md`.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    sleepwatch_benchmark::main_with_args(&args)
}
