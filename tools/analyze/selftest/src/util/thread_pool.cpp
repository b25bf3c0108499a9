// Exempt file: ThreadPool is the one owner of raw threads.
namespace stellaris {

void hygiene_pool_spawn() { std::thread worker([] {}); }

}  // namespace stellaris
