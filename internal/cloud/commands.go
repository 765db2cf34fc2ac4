package cloud

import (
	"fmt"

	"repro/internal/engine"
)

// The command table: one row per command byte, read by everything that
// depends on the command a message carries — encoding, framing and
// materializing requests and replies, and both handlers' dispatch. An op
// row's name, scheme (hence layout) and operand count are its engine kind's.
// A byte with no row is an unknown command, refused wherever it turns up.

// bodyShape is what a request carries after its tenant.
type bodyShape uint8

const (
	bodyNone    bodyShape = iota
	bodyBlob              // length (4 LE) | key blob
	bodyProgram           // length (4 LE) | program | input count (4 LE) | BFV ciphertexts
	bodyOp                // argument word (4 LE), if any | the engine kind's operands
)

// argWord is the request field an op's argument word travels in.
type argWord uint8

const (
	argNone argWord = iota
	argG            // Request.G, a Galois element
	argR            // Request.R, a slot rotation count
)

// ReplyKind is the shape of a command's success reply after the status byte;
// the error half is one shape for every kind (see Reply).
type ReplyKind uint8

const (
	ReplyOp      ReplyKind = iota // compute ns (8) | worker (4) | ciphertext
	ReplyProgram                  // makespan ns (8) | serial ns (8) | key loads (4) | nodes (4) | count (4) | ciphertexts
	ReplyInfo                     // length (4) | JSON ServerInfo
	ReplyBlob                     // length (4) | bytes
)

type command struct {
	name  string // of a row without an engine kind
	body  bodyShape
	arg   argWord
	reply ReplyKind
	bound func(cd *codec) int // caps the body of an info or blob reply
	op    engine.OpKind       // what serves an op row
}

var commands = [256]*command{
	CmdAdd:        {body: bodyOp, op: engine.OpAdd},
	CmdMul:        {body: bodyOp, op: engine.OpMul},
	CmdPing:       {name: "ping", reply: ReplyOp}, // answered without the engine
	CmdRotate:     {body: bodyOp, arg: argG, op: engine.OpRotate},
	CmdInfo:       {name: "info", reply: ReplyInfo, bound: func(*codec) int { return maxInfoBytes }},
	CmdProgram:    {name: "program", body: bodyProgram, reply: ReplyProgram},
	CmdCKKSAdd:    {body: bodyOp, op: engine.OpCKKSAdd},
	CmdCKKSMul:    {body: bodyOp, op: engine.OpCKKSMul},
	CmdCKKSRotate: {body: bodyOp, arg: argR, op: engine.OpCKKSRotate},
	CmdKeyExport:  {name: "key_export", reply: ReplyBlob, bound: func(cd *codec) int { return cd.maxKeyBlob }},
	CmdKeyImport:  {name: "key_import", body: bodyBlob, reply: ReplyBlob, bound: func(*codec) int { return maxAckBytes }},
}

// commandOf returns cmd's row, or the refusal of a byte that has none.
func commandOf(cmd uint8) (*command, error) {
	if c := commands[cmd]; c != nil {
		return c, nil
	}
	return nil, fmt.Errorf("%w: unknown command %d", ErrMalformedRequest, cmd)
}

func cmdName(cmd uint8) string {
	switch c := commands[cmd]; {
	case c == nil:
		return fmt.Sprintf("cmd(%d)", cmd)
	case c.body == bodyOp:
		return c.op.String()
	default:
		return c.name
	}
}

// ReplyKind returns the kind of reply f's command answers in.
func (f *Frame) ReplyKind() ReplyKind { return commands[f.Cmd].reply }

func (a argWord) put(req *Request, w uint32) {
	if a == argG {
		req.G = w
	} else {
		req.R = int32(w)
	}
}

func (a argWord) of(req *Request) uint32 {
	if a == argG {
		return req.G
	}
	return uint32(req.R)
}
