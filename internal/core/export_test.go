package core

// RaceEnabled exposes the build's race-detector flag to the external test
// package.
const RaceEnabled = raceEnabled
