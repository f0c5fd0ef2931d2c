//go:build !linux

package main

import "time"

func pinPoller() (unpin func()) { return func() {} }

func pollSleep(d time.Duration) { time.Sleep(d) }
