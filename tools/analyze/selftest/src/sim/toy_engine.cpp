// driver-engine out of scope: the engine itself may name Engine and its
// scheduling API.
namespace stellaris::sim {

void Engine::hygiene_engine_schedules() { schedule_at(now(), fn); }

}  // namespace stellaris::sim
