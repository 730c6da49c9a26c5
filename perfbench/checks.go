package main

import (
	"bytes"
	"fmt"
)

// The output checks every operation passes. They are plain functions of
// the outputs so checks_test.go can feed each one a corrupted output.

// checkBytes reports where got first differs from want.
func checkBytes(what string, got, want []byte) error {
	if bytes.Equal(got, want) {
		return nil
	}
	n := min(len(got), len(want))
	i := 0
	for i < n && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("output differs from %s at byte %d (got %d bytes, want %d)", what, i, len(got), len(want))
}

// checkEvents compares a fleet run's engine event count with the count the
// workload pins; want 0 pins nothing.
func checkEvents(got, want int64) error {
	if want != 0 && got != want {
		return fmt.Errorf("engine executed %d events, want %d", got, want)
	}
	return nil
}

// checkLabels requires one label list per uploaded frame.
func checkLabels(frames, labelLists int) error {
	if labelLists != frames {
		return fmt.Errorf("got %d label lists for %d frames", labelLists, frames)
	}
	return nil
}

// checkFramesLabeled compares the frames the cloud reports labeled for a
// device with the frames sent to it.
func checkFramesLabeled(labeled, sent int64) error {
	if labeled != sent {
		return fmt.Errorf("cloud labeled %d frames, sent %d", labeled, sent)
	}
	return nil
}
