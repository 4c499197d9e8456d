package main

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer keeps one driver on its schedule. Below a millisecond time.Sleep
// cannot: an idle Go scheduler waits in epoll_wait, whose timeout is in
// whole milliseconds, so a 300 µs sleep returns after 1 ms. nanosleep(2)
// is precise but parks the thread with its P attached, which takes a
// processor away from the server under test until sysmon notices. A
// timerfd read through the runtime's poller does neither: the goroutine
// parks, its P goes back to work, and the kernel's high-resolution timer
// wakes it within ~20 µs of the due time.
type pacer struct {
	f *os.File
}

type itimerspec struct{ interval, value syscall.Timespec }

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

func newPacer() (*pacer, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &pacer{f: os.NewFile(fd, "timerfd")}, nil
}

// sleepUntil blocks until t.
func (p *pacer) sleepUntil(t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return nil
	}
	spec := itimerspec{value: syscall.NsecToTimespec(int64(d))}
	if _, _, errno := syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, p.f.Fd(), 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0); errno != 0 {
		return os.NewSyscallError("timerfd_settime", errno)
	}
	var expirations [8]byte
	_, err := p.f.Read(expirations[:])
	return err
}

func (p *pacer) close() { p.f.Close() }
