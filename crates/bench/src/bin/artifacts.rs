//! Prints the paper's tables and figures and the sweeps beyond it:
//! `cargo run --release -p llmqo-bench --bin artifacts -- <name>|all`, with
//! the names of [`ARTIFACTS`](llmqo_bench::artifacts::ARTIFACTS).

fn main() {
    llmqo_bench::artifacts::main()
}
