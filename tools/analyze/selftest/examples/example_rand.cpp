// The hygiene scope includes examples/: the code users copy first.
// expect: randomness
int hygiene_example_draw() { return rand(); }
