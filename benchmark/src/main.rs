//! Command-line entry point; see `benchmark::run` and `README.md`.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(benchmark::run::main(&argv));
}
