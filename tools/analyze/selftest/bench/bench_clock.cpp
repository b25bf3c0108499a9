// Out of the hygiene scope: benches legitimately time with steady_clock.
double hygiene_bench_now() { return std::chrono::steady_clock::now(); }
