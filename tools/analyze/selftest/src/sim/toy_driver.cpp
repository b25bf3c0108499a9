// driver-engine in scope: a src/sim/ file whose name contains "driver".
namespace stellaris::sim {

void hygiene_driver_touches_engine() {
  // expect: driver-engine
  engine_.schedule_at(t, fn);
  // expect: driver-engine
  Engine& eng = platform.engine();
  // expect: driver-engine
  schedule_after(0.5, cb);
  // expect: driver-engine
  schedule_cancellable_at(1.0, cb);
}

}  // namespace stellaris::sim
