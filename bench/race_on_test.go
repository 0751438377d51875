//go:build race

package main

import "time"

// smokeWindow is the measured window of the smoke run. The race
// detector slows the daemons tenfold; the window grows with it so
// every op kind still lands inside.
const smokeWindow = 5 * time.Second
