package wire

import "besteffs/internal/codec"

// A Decoder decodes the request frames of one connection into messages it
// keeps from one group of frames to the next: PUTs, BATCHes and a BATCH's
// subs reuse the storage of an earlier group's instead of allocating their
// own. A PUT's importance function stays encoded (Put.ImportanceEncoding),
// checked but not built, so a put costs what its ID holds and nothing for
// the message or its annotation. Every other message is decoded as Decode
// decodes it. The messages alias their frame bodies as Decode's do.
//
// A Decoder is not safe for concurrent use. The zero Decoder is ready to
// use.
type Decoder struct {
	codec   codec.Codec
	puts    []Put
	batches []Batch
	subs    []Message
}

// Reset ends the group: the messages decoded since the last Reset are given
// back for the next group's frames, so none of them may be read after it.
// It drops what they held, so a kept message pins no frame or payload.
func (d *Decoder) Reset() {
	clear(d.puts)
	clear(d.batches)
	clear(d.subs)
	d.puts, d.batches, d.subs = d.puts[:0], d.batches[:0], d.subs[:0]
}

// DecodeWithTrailers is the package's DecodeWithTrailers for one frame body
// of the group, decoded into messages the Decoder keeps.
func (d *Decoder) DecodeWithTrailers(body []byte) (Message, Trailers, error) {
	c := &d.codec
	c.Buf, c.Off, c.Enc, c.Err = body, 0, false, nil
	m := message(c, d)
	off, err := c.Off, c.Err
	c.Buf, c.Err = nil, nil
	if err != nil {
		return nil, Trailers{}, err
	}
	return m, parseTrailers(body[off:]), nil
}

// decode decodes the fields of an op the Decoder keeps messages of into the
// group's next message of that type, and returns nil for any other op.
// Storage grows by appending: a message handed out earlier in the group
// keeps the array it was decoded into.
func (d *Decoder) decode(c *codec.Codec, op Op) Message {
	switch op {
	case OpPut:
		d.puts = append(d.puts, Put{})
		m := &d.puts[len(d.puts)-1]
		m.walk(c, true)
		return m
	case OpBatch:
		d.batches = append(d.batches, Batch{})
		m := &d.batches[len(d.batches)-1]
		at := len(d.subs)
		d.subs = decodeSubs(c, OpBatch, d.subs, d)
		m.Subs = d.subs[at:len(d.subs):len(d.subs)]
		return m
	}
	return nil
}
