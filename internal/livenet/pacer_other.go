//go:build !linux

package livenet

import (
	"errors"
	"time"
)

// kernelTicker needs timerfd; elsewhere the cluster runs unpaced.
type kernelTicker struct{}

func newKernelTicker() (*kernelTicker, error) {
	return nil, errors.New("livenet: no kernel ticker on this platform")
}

func (k *kernelTicker) set(time.Duration) {}
func (k *kernelTicker) wait() error       { return errors.ErrUnsupported }
func (k *kernelTicker) close()            {}
