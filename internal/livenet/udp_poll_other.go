//go:build !unix

package livenet

import "net"

// Without a descriptor to read past the runtime's poller, senders do not
// poll: the port's reader takes every train.
func pollFD(*net.UDPConn) int { return -1 }

func readNow(int, []byte) (int, bool) { return 0, false }
