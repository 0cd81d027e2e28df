// Package repro is the zen network architecture platform: a complete
// software-defined networking stack in pure Go — southbound protocol,
// software switches, controller and applications, emulator, and the
// wide-area services (traffic engineering, congestion-free updates,
// intents) — built as the reproduction artifact for Larry Peterson's
// SIGCOMM 2013 keynote "Zen and the art of network architecture".
//
// The implementation lives under internal/; cmd/ holds the binaries
// and examples/ the runnable walkthroughs. internal/experiments hosts
// the synthetic evaluation suite and one testing.B per experiment (see
// DESIGN.md and EXPERIMENTS.md).
package repro
