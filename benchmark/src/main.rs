//! The untraced binary: end-to-end passes, the report, `aa`, `compare`.

fn main() -> std::process::ExitCode {
    benchmark::cli::main(false)
}
