//go:build !race

package main

import "time"

// smokeWindow is the measured window of the smoke run: long enough
// for every op kind of every workload, short enough for tier-1.
const smokeWindow = 500 * time.Millisecond
