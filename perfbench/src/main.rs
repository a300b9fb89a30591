//! The `benchmark` command; see the library docs and README.md.

fn main() -> std::process::ExitCode {
    culinaria_perfbench::cli(std::env::args().skip(1))
}
