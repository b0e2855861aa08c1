//go:build race

package honeypot

// The race detector runs the shell's per-byte lexer about six times
// slower; wall-clock bounds scale by this much under it.
func init() { raceSlowdown = 5 }
