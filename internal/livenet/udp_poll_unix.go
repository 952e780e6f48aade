//go:build unix

package livenet

import (
	"net"
	"syscall"
)

// pollFD returns conn's descriptor for readNow, or -1. The runtime opened
// the socket non-blocking, and it stays the same descriptor until conn is
// closed.
func pollFD(conn *net.UDPConn) int {
	fd := -1
	if rc, err := conn.SyscallConn(); err == nil {
		rc.Control(func(f uintptr) { fd = int(f) }) //nolint:errcheck // fd stays -1
	}
	return fd
}

// readNow reads one datagram from the non-blocking socket fd without
// going through the runtime's poller (whose read lock the port's reader
// holds while it waits). ok is false when nothing is queued.
func readNow(fd int, buf []byte) (n int, ok bool) {
	n, err := syscall.Read(fd, buf)
	return n, err == nil && n >= 0
}
