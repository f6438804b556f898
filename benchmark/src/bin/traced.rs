//! The traced binary: the same driver with the product's counting
//! allocator installed, so per-op and per-probe allocation counts and
//! the live-heap high-water mark are exact. Serves `--trace 1`.

#[global_allocator]
static ALLOC: moteur_benchmark::sut::CountingAlloc = moteur_benchmark::sut::CountingAlloc;

fn main() -> std::process::ExitCode {
    moteur_benchmark::cli::main()
}
