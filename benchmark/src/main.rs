//! The untraced binary: system allocator, no spans, profiler off. Every
//! end-to-end metric comes from here.

fn main() -> std::process::ExitCode {
    moteur_benchmark::cli::main()
}
