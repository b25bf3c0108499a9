// Out of the hygiene scope: tools/ other than tools/report/.
double hygiene_tool_now() { return std::chrono::steady_clock::now(); }
