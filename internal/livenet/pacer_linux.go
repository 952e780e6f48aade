//go:build linux

package livenet

import (
	"os"
	"syscall"
	"time"
	"unsafe"
)

// kernelTicker is a periodic timerfd read through the runtime's poller:
// a wait parks the goroutine, not a thread, and ends when the kernel's
// high-resolution timer fires.
type kernelTicker struct {
	fd uintptr // for timerfd_settime; f.Fd() would make the file blocking
	f  *os.File
}

const (
	clockMonotonic = 1
	tfdNonblock    = 0x800
	tfdCloexec     = 0x80000
)

// newKernelTicker returns a disarmed ticker.
func newKernelTicker() (*kernelTicker, error) {
	fd, _, errno := syscall.Syscall(syscall.SYS_TIMERFD_CREATE, clockMonotonic, tfdNonblock|tfdCloexec, 0)
	if errno != 0 {
		return nil, os.NewSyscallError("timerfd_create", errno)
	}
	return &kernelTicker{fd: fd, f: os.NewFile(fd, "timerfd")}, nil
}

// set arms the ticker with period d; zero disarms it.
func (k *kernelTicker) set(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	spec := [2]syscall.Timespec{ts, ts} // struct itimerspec: interval, first expiry
	syscall.Syscall6(syscall.SYS_TIMERFD_SETTIME, k.fd, 0, uintptr(unsafe.Pointer(&spec)), 0, 0, 0)
}

// wait blocks until the next tick; it fails once the ticker is closed.
func (k *kernelTicker) wait() error {
	var expirations [8]byte
	_, err := k.f.Read(expirations[:])
	return err
}

func (k *kernelTicker) close() { k.f.Close() }
