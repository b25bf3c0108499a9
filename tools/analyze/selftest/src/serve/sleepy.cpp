// serve-sleep in scope: a file directly under src/serve/.
namespace stellaris::serve {

void hygiene_serve_sleeps() {
  // expect: serve-sleep
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // expect: serve-sleep
  std::this_thread::sleep_until(deadline);
  // expect: serve-sleep
  usleep(100);
  // expect: serve-sleep
  nanosleep(&ts, nullptr);
  usleep(1);  // analyze:serve-sleep-ok — deliberate real-time scaffolding
}

}  // namespace stellaris::serve
