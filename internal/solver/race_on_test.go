//go:build race

package solver

// raceEnabled reports a -race build. The race build compiles some
// commutative adds with their operands swapped, which changes which
// payload a NaN + NaN keeps, so sameBits accepts either NaN there.
const raceEnabled = true
