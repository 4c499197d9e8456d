//go:build !linux

package main

import "time"

// pacer falls back to time.Sleep where timerfd does not exist; expect
// millisecond schedule lag there (see pacer_linux.go).
type pacer struct{}

func newPacer() (*pacer, error) { return &pacer{}, nil }

func (p *pacer) sleepUntil(t time.Time) error {
	time.Sleep(time.Until(t))
	return nil
}

func (p *pacer) close() {}
