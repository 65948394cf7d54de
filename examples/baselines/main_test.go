package main

import "testing"

// TestMainRuns runs the example end to end in process: a log.Fatal or a
// panic fails the test.
func TestMainRuns(t *testing.T) { main() }
