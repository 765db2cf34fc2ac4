package cloud

// Key-state migration wire support: the tenant key blob (the CmdKeyExport
// reply and the CmdKeyImport payload) and the client methods that speak the
// two commands; both answer with the blob reply kind (protocol.go). Ring
// membership itself has no wire command: it changes only inside the routing
// tier's own process (cluster.Router).
//
// A key blob is the complete evaluation-key state of one tenant — BFV and
// CKKS, relinearization and Galois — as a bounded sequence of sections,
// each wrapping one key in its checksummed v2 file container. The inner
// containers carry their own parameter headers and checksums, so a blob
// damaged in flight (or emitted by a node on different parameters) is
// detected on import, never silently installed.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/ckks"
	"repro/internal/engine"
	"repro/internal/fv"
)

// maxAckBytes bounds the JSON acknowledgement of a CmdKeyImport. It is tiny;
// anything bigger is malformed.
const maxAckBytes = 4096

// maxKeyBlobSections bounds the section count of a key blob: one relin key
// plus at most 64 Galois keys per scheme (matching the per-key gadget
// bound the key containers enforce).
const maxKeyBlobSections = 130

// Key blob section kinds.
const (
	keySectionFVRelin    uint8 = 1
	keySectionFVGalois   uint8 = 2
	keySectionCKKSRelin  uint8 = 3
	keySectionCKKSGalois uint8 = 4
)

var keyBlobMagic = [4]byte{'H', 'E', 'K', 'B'}

// ErrKeyBlob wraps every structural decode failure of a tenant key blob.
var ErrKeyBlob = errors.New("cloud: malformed key blob")

// EncodeTenantKeys serializes a tenant key set as a key blob. CKKS keys
// require cparams (the node's CKKS parameter set); an empty set is an
// error — there is nothing to migrate.
func EncodeTenantKeys(params *fv.Params, cparams *ckks.Params, ks *engine.TenantKeySet) ([]byte, error) {
	if ks.Empty() {
		return nil, errors.New("cloud: empty tenant key set")
	}
	if (ks.CKKSRelin != nil || len(ks.CKKSGalois) > 0) && cparams == nil {
		return nil, errors.New("cloud: key set has CKKS keys but no CKKS parameters")
	}
	if ks.Count() > maxKeyBlobSections {
		return nil, fmt.Errorf("cloud: key set of %d keys exceeds %d sections", ks.Count(), maxKeyBlobSections)
	}
	var out bytes.Buffer
	out.Write(keyBlobMagic[:])
	var cnt [2]byte
	binary.LittleEndian.PutUint16(cnt[:], uint16(ks.Count()))
	out.Write(cnt[:])

	section := func(kind uint8, write func(w io.Writer) error) error {
		var body bytes.Buffer
		if err := write(&body); err != nil {
			return err
		}
		out.WriteByte(kind)
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(body.Len()))
		out.Write(n[:])
		out.Write(body.Bytes())
		return nil
	}
	if ks.Relin != nil {
		if err := section(keySectionFVRelin, func(w io.Writer) error {
			return fv.WriteRelinKeyV2(w, params, ks.Relin)
		}); err != nil {
			return nil, err
		}
	}
	for _, gk := range ks.Galois {
		gk := gk
		if err := section(keySectionFVGalois, func(w io.Writer) error {
			return fv.WriteGaloisKeyV2(w, params, gk)
		}); err != nil {
			return nil, err
		}
	}
	if ks.CKKSRelin != nil {
		if err := section(keySectionCKKSRelin, func(w io.Writer) error {
			return ckks.WriteRelinKeyV2(w, cparams, ks.CKKSRelin)
		}); err != nil {
			return nil, err
		}
	}
	for _, gk := range ks.CKKSGalois {
		gk := gk
		if err := section(keySectionCKKSGalois, func(w io.Writer) error {
			return ckks.WriteGaloisKeyV2(w, cparams, gk)
		}); err != nil {
			return nil, err
		}
	}
	return out.Bytes(), nil
}

// DecodeTenantKeys parses and validates a key blob against the node's own
// parameter sets: every section decodes through its checksummed container,
// and a key generated under different ring parameters (or a CKKS key on a
// node without CKKS) is refused rather than installed.
func DecodeTenantKeys(data []byte, params *fv.Params, cparams *ckks.Params) (*engine.TenantKeySet, error) {
	if len(data) < 6 || [4]byte(data[:4]) != keyBlobMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrKeyBlob)
	}
	count := int(binary.LittleEndian.Uint16(data[4:6]))
	if count == 0 || count > maxKeyBlobSections {
		return nil, fmt.Errorf("%w: section count %d outside (0, %d]", ErrKeyBlob, count, maxKeyBlobSections)
	}
	ks := &engine.TenantKeySet{}
	off := 6
	for i := 0; i < count; i++ {
		if len(data)-off < 5 {
			return nil, fmt.Errorf("%w: truncated section %d header", ErrKeyBlob, i)
		}
		kind := data[off]
		n := int(binary.LittleEndian.Uint32(data[off+1 : off+5]))
		off += 5
		if n <= 0 || n > len(data)-off {
			return nil, fmt.Errorf("%w: section %d length %d exceeds remaining %d bytes", ErrKeyBlob, i, n, len(data)-off)
		}
		body := bytes.NewReader(data[off : off+n])
		off += n
		switch kind {
		case keySectionFVRelin:
			p, rk, err := fv.ReadRelinKey(body)
			if err != nil {
				return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
			}
			if err := sameFVParams(p, params); err != nil {
				return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
			}
			ks.Relin = rk
		case keySectionFVGalois:
			p, gk, err := fv.ReadGaloisKey(body)
			if err != nil {
				return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
			}
			if err := sameFVParams(p, params); err != nil {
				return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
			}
			ks.Galois = append(ks.Galois, gk)
		case keySectionCKKSRelin, keySectionCKKSGalois:
			if cparams == nil {
				return nil, fmt.Errorf("%w: section %d carries a CKKS key but this node has no CKKS parameters", ErrKeyBlob, i)
			}
			if kind == keySectionCKKSRelin {
				p, rk, err := ckks.ReadRelinKey(body)
				if err != nil {
					return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
				}
				if err := sameCKKSParams(p, cparams); err != nil {
					return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
				}
				ks.CKKSRelin = rk
			} else {
				p, gk, err := ckks.ReadGaloisKey(body)
				if err != nil {
					return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
				}
				if err := sameCKKSParams(p, cparams); err != nil {
					return nil, fmt.Errorf("%w: section %d: %w", ErrKeyBlob, i, err)
				}
				ks.CKKSGalois = append(ks.CKKSGalois, gk)
			}
		default:
			return nil, fmt.Errorf("%w: section %d has unknown kind %d", ErrKeyBlob, i, kind)
		}
	}
	if off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrKeyBlob, len(data)-off)
	}
	return ks, nil
}

// sameFVParams checks the decoded key's ring shape against the node's: a
// key from a differently-parameterized fleet must not be installed.
func sameFVParams(got, want *fv.Params) error {
	if got.N() != want.N() || got.QBasis.K() != want.QBasis.K() {
		return fmt.Errorf("key parameters (n=%d, k=%d) do not match node (n=%d, k=%d)",
			got.N(), got.QBasis.K(), want.N(), want.QBasis.K())
	}
	return nil
}

func sameCKKSParams(got, want *ckks.Params) error {
	if got.N() != want.N() || got.MaxLevel() != want.MaxLevel() {
		return fmt.Errorf("CKKS key parameters (n=%d, L=%d) do not match node (n=%d, L=%d)",
			got.N(), got.MaxLevel(), want.N(), want.MaxLevel())
	}
	return nil
}

// KeyExport asks the node for the tenant's complete evaluation-key state as
// an opaque key blob (decode with DecodeTenantKeys). A tenant with no keys
// on the node is a *ServerError.
func (c *Client) KeyExport(ctx context.Context, tenant string) ([]byte, error) {
	return ReplyAs[Blob](c.roundTrip(ctx, &Request{Cmd: CmdKeyExport, Tenant: tenant}))
}

// ImportAck is the JSON body acknowledging a CmdKeyImport.
type ImportAck struct {
	Tenant string `json:"tenant"`
	Keys   int    `json:"keys"`
}

// KeyImport installs a key blob (from KeyExport on another node) under the
// tenant on this node, returning how many keys were registered.
func (c *Client) KeyImport(ctx context.Context, tenant string, blob []byte) (*ImportAck, error) {
	body, err := ReplyAs[Blob](c.roundTrip(ctx, &Request{Cmd: CmdKeyImport, Tenant: tenant, Blob: blob}))
	if err != nil {
		return nil, err
	}
	var ack ImportAck
	if err := json.Unmarshal(body, &ack); err != nil {
		return nil, fmt.Errorf("cloud: decoding import ack: %w", err)
	}
	return &ack, nil
}
