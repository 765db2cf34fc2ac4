package cluster

import (
	"errors"
	"testing"

	"repro/internal/cloud"
)

// TestPoolRefusesAfterClose: a request that fetched a backend's pool just
// before Router.Close or a membership change retired it must fail with
// errPoolClosed — never dial a fresh connection to the drained node — on
// both transports.
func TestPoolRefusesAfterClose(t *testing.T) {
	dials := 0
	pools := map[string]backendPool{
		"conn": newConnPool(2, func() (*cloud.Client, error) {
			dials++
			return nil, errors.New("dialed a closed pool")
		}),
		"mux": newMuxPool(func() (*cloud.MuxClient, error) {
			dials++
			return nil, errors.New("dialed a closed pool")
		}),
	}
	for name, p := range pools {
		p.close()
		if c, err := p.get(); !errors.Is(err, errPoolClosed) {
			t.Errorf("%s pool: get after close = (%v, %v), want errPoolClosed", name, c, err)
		}
	}
	if dials != 0 {
		t.Errorf("closed pools dialed %d times", dials)
	}
}
