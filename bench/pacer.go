package main

import (
	"fmt"
	"os"
	"syscall"
	"time"
	"unsafe"
)

// pacer sleeps one goroutine until a due time on its own timerfd. The
// wake-up arrives through the netpoller within tens of microseconds and
// parks the goroutine properly, where Go timers on the reference box wake
// up to a millisecond late (a nanosleep is precise but holds the P in a
// blocking syscall, stranding the goroutines it just readied, such as the
// exporter loop an Export woke).
type pacer struct {
	clk *clock
	f   *os.File
	rc  syscall.RawConn
}

func newPacer(clk *clock) (*pacer, error) {
	const clockMonotonic = 1
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, syscall.O_NONBLOCK|syscall.O_CLOEXEC, 0)
	if errno != 0 {
		return nil, fmt.Errorf("timerfd_create: %w", errno)
	}
	f := os.NewFile(fd, "timerfd")
	rc, err := f.SyscallConn()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &pacer{clk: clk, f: f, rc: rc}, nil
}

// until waits for offset d and reports whether it had to: false means the
// caller is running behind its schedule.
func (p *pacer) until(d time.Duration) (bool, error) {
	w := d - p.clk.now()
	if w <= 0 {
		return false, nil
	}
	// struct itimerspec: a zero interval, then the one-shot expiry.
	spec := [4]int64{0, 0, int64(w / time.Second), int64(w % time.Second)}
	var errno syscall.Errno
	if err := p.rc.Control(func(fd uintptr) {
		_, _, errno = syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
	}); err != nil {
		return false, err
	}
	if errno != 0 {
		return false, fmt.Errorf("timerfd_settime: %w", errno)
	}
	var expirations [8]byte
	if _, err := p.f.Read(expirations[:]); err != nil {
		return false, fmt.Errorf("timerfd read: %w", err)
	}
	return true, nil
}

func (p *pacer) close() { p.f.Close() }
