package faults

import (
	"net"
	"sync"
	"sync/atomic"
)

// Proxy is a byte-level TCP relay that gives the injector a place to fault
// the cluster's wire frames without touching the protocol code: the router
// dials the proxy, the proxy forwards to the real backend, and each
// forwarded chunk is one ClassFrame opportunity. ModeDrop severs both
// directions mid-frame (the client sees a transport error and the router
// fails over); ModeGarble overwrites a run of bytes with 0xFF, which the
// frame checksums — and behind them the hardened decoders — reject; ModeFlip
// flips one bit at a seeded position anywhere in the chunk, which only a
// checksum can catch: a flipped residue bit below the modulus decodes as a
// valid, wrong ciphertext.
type Proxy struct {
	ln     net.Listener
	target string
	inj    *Injector

	closed atomic.Bool
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// garbleLen is the length of the 0xFF run a ModeGarble frame fault writes.
// Sixteen consecutive 0xFF bytes cover at least three aligned 32-bit words,
// so a run landing anywhere in ciphertext data always produces an
// out-of-range residue, and a run landing in a header always destroys a
// magic, status, length, or request-ID field.
const garbleLen = 16

// garbleSkip is how far into a large chunk a garble lands: past the frame
// headers, inside the residue payload, where corruption is always detected
// by the residue range check. Chunks shorter than garbleSkip+garbleLen are
// header-sized and are garbled from the start instead.
const garbleSkip = 64

// NewProxy starts a relay on a loopback port toward target. Close releases
// it.
func NewProxy(target string, inj *Injector) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, inj: inj, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.serve()
	return p, nil
}

// Addr returns the address the router should dial.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops accepting, severs every live relay, and waits for the relay
// goroutines to exit.
func (p *Proxy) Close() error {
	p.closed.Store(true)
	err := p.ln.Close()
	p.mu.Lock()
	for c := range p.conns {
		c.Close()
	}
	p.mu.Unlock()
	p.wg.Wait()
	return err
}

func (p *Proxy) track(c net.Conn) {
	p.mu.Lock()
	if p.closed.Load() {
		// Close already swept the map: registering now would leave the
		// connection unsevered and Close's wg.Wait stuck behind its pumps.
		p.mu.Unlock()
		c.Close()
		return
	}
	p.conns[c] = struct{}{}
	p.mu.Unlock()
}

func (p *Proxy) untrack(c net.Conn) {
	p.mu.Lock()
	delete(p.conns, c)
	p.mu.Unlock()
	c.Close()
}

func (p *Proxy) serve() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.wg.Add(1)
		go p.relay(conn)
	}
}

// relay shuttles bytes both ways through the fault filter until either side
// closes or a drop fault severs the pair.
func (p *Proxy) relay(client net.Conn) {
	defer p.wg.Done()
	backend, err := net.Dial("tcp", p.target)
	if err != nil {
		client.Close()
		return
	}
	p.track(client)
	p.track(backend)
	sever := func() {
		p.untrack(client)
		p.untrack(backend)
	}
	var once sync.Once
	pump := func(dst, src net.Conn) {
		defer p.wg.Done()
		defer once.Do(sever)
		buf := make([]byte, 4096)
		for {
			n, err := src.Read(buf)
			if n > 0 {
				chunk := buf[:n]
				if f := p.inj.Opportunity(ClassFrame); f != nil {
					switch f.Mode {
					case ModeDrop:
						return
					case ModeFlip:
						bit := f.Pick(8 * len(chunk))
						chunk[bit/8] ^= 1 << (bit % 8)
					default:
						garble(chunk, f)
					}
				}
				if _, werr := dst.Write(chunk); werr != nil {
					return
				}
			}
			if err != nil {
				return
			}
		}
	}
	p.wg.Add(2)
	go pump(backend, client)
	go pump(client, backend)
}

// garble overwrites a run of chunk with 0xFF at a position chosen so the
// corruption is always decoder-visible (see garbleSkip).
func garble(chunk []byte, f *Fault) {
	start := 0
	if len(chunk) > garbleSkip+garbleLen {
		start = garbleSkip + f.Pick(len(chunk)-garbleSkip-garbleLen)
	}
	end := start + garbleLen
	if end > len(chunk) {
		end = len(chunk)
	}
	for i := start; i < end; i++ {
		chunk[i] = 0xFF
	}
}
