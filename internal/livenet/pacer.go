package livenet

import "time"

// paceEvery is the pacer's period: how late a timer of this process may
// fire while a client waits for or holds a lease — half the runtime's own
// resolution, and the default ν. Measured on live_udp_sparse: 200 µs
// trims grant p99 by a further quarter and costs a third more CPU.
const paceEvery = 500 * time.Microsecond

// pace keeps the process's timers honest while the lock service has
// clients to serve. The Go runtime parks an idle process in a poll whose
// timeout has millisecond resolution, so once the host is efficient
// enough for the process to go idle between events, every sub-millisecond
// timer in it fires up to 1 ms late — and the clients of this package are
// goroutines of the same process, whose holds and think times are such
// timers. They fall into a 1 ms lockstep: on a ring of 128 with 5 ms think
// times a 300 µs hold lasts 1.3 ms at the median, and whoever waits for a
// neighbour's lease waits that long (grant p95 1.4 ms where 0.3 ms is
// possible). So while any node's lease slot is taken the pacer waits on a
// kernel timer through the runtime's poller: the poll returns every
// paceEvery, and a processor goes through the scheduler, and with it the
// timer check, that often. A saturated process never gets to the poll and
// does not need to; an idle cluster disarms the timer.
func (c *Cluster) pace(k *kernelTicker) {
	defer c.wg.Done()
	defer k.close()
	armed := false
	for {
		if c.busy.Load() == 0 {
			if armed {
				k.set(0)
				armed = false
			}
			select {
			case <-c.paceCh:
			case <-c.stopCh:
				return
			}
			continue
		}
		if !armed {
			k.set(paceEvery)
			armed = true
		}
		select {
		case <-c.stopCh:
			return
		default:
		}
		if k.wait() != nil {
			return
		}
	}
}

// takeSlot and freeSlot bracket a node's one outstanding request — from
// Acquire's entry to the end of the lease it led to — and keep the count
// of such nodes the pacer runs on. takeSlot's caller has just sent on
// n.slot.
func (n *liveNode) takeSlot() {
	if n.c.busy.Add(1) == 1 {
		select {
		case n.c.paceCh <- struct{}{}:
		default:
		}
	}
}

func (n *liveNode) freeSlot() {
	<-n.slot
	n.c.busy.Add(-1)
}
