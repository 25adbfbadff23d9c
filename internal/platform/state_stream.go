package platform

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"

	"github.com/treads-project/treads/internal/profile"
)

// A State's JSON document is as large as the shard, so it is never built.
// WriteSnapshot and ReadSnapshot walk State and, one level down, its
// struct-typed fields, field by field (reflection over the json tags, so a
// new field is carried without being listed here), and hand every slice they
// meet there to encoding/json one element at a time — a profile, one user's
// feed, one campaign's ledger account — and every other field whole. The
// document is json.Marshal's, byte for byte, and is read as json.Unmarshal
// reads it; the tests hold both to those two. A live platform's profiles,
// the bulk of a shard, are not copied into a State at all: the walk takes
// them from the profile store, each appended by its own encoder.

// WriteSnapshot writes s to w as exactly the bytes json.Marshal(s) returns,
// about 64 KiB at a time.
func WriteSnapshot(w io.Writer, s State) error { return writeState(w, s, nil) }

// writeLiveState writes to w exactly what WriteSnapshot writes of c.state(),
// through the same writes, with the profiles read from c's store where they
// live. Nothing may mutate c meanwhile: Platform.Compact holds the op lock.
func (c *components) writeLiveState(w io.Writer) error {
	return writeState(w, c.stateWithoutProfiles(), c.store)
}

// writeState is WriteSnapshot, except that with live set the profiles field
// is written from that store and s's own is not looked at.
func writeState(w io.Writer, s State, live *profile.Store) error {
	e := &stateEncoder{w: w, live: live}
	e.enc = json.NewEncoder(&e.buf)
	err := e.value(reflect.ValueOf(s), 2)
	if err == nil {
		_, err = w.Write(e.buf.Bytes())
	}
	if err != nil {
		return fmt.Errorf("platform: writing snapshot: %w", err)
	}
	return nil
}

// ReadSnapshot parses a State's JSON document from r — compact as
// WriteSnapshot writes it or indented as earlier builds did — accepting what
// json.Unmarshal into a State accepts, with the same result. It reads r to
// its end, so a source that checksums what it delivers has vouched for it.
func ReadSnapshot(r io.Reader) (State, error) {
	dec := json.NewDecoder(r)
	// For skipValue: a number no float64 holds is passed over, as Unmarshal
	// passes over it. State has no interface-typed field to see a Number.
	dec.UseNumber()
	var s State
	err := decodeValue(dec, reflect.ValueOf(&s).Elem(), 2)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	} else if err == nil {
		var tok json.Token
		if tok, err = dec.Token(); err == io.EOF {
			return s, nil
		} else if err == nil {
			err = fmt.Errorf("%v after the state document", tok)
		}
	}
	return State{}, fmt.Errorf("platform: parsing snapshot: %w", err)
}

// streamField is one JSON-visible field of a walked struct.
type streamField struct {
	index     int
	name      string
	omitEmpty bool
}

// streamFields lists t's fields as encoding/json sees plainly tagged ones: a
// name and omitempty. (Embedding or another tag option would make
// WriteSnapshot differ from json.Marshal, which is a test failure.)
func streamFields(t reflect.Type) (fields []streamField) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, opts, comma := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || (name == "-" && !comma) {
			continue
		}
		if name == "" {
			name = f.Name
		}
		fields = append(fields, streamField{i, name, opts == "omitempty"})
	}
	return fields
}

var jsonMarshaler, jsonUnmarshaler = reflect.TypeOf((*json.Marshaler)(nil)).Elem(), reflect.TypeOf((*json.Unmarshaler)(nil)).Elem()

// walks reports whether a value of type t is taken apart — a struct while
// depth lasts, any slice but []byte — or handed to encoding/json whole, as
// is every type with a JSON coding of its own.
func walks(t reflect.Type, depth int) (asStruct, asSlice bool) {
	if pt := reflect.PointerTo(t); pt.Implements(jsonMarshaler) || pt.Implements(jsonUnmarshaler) {
		return false, false
	}
	return t.Kind() == reflect.Struct && depth > 0, t.Kind() == reflect.Slice && t.Elem().Kind() != reflect.Uint8
}

type stateEncoder struct {
	w   io.Writer
	buf bytes.Buffer  // encoded output not yet written
	enc *json.Encoder // onto buf
	// live, when set, is the store the []profile.State field is written from.
	live *profile.Store
}

var profileStates = reflect.TypeOf([]profile.State(nil))

func (e *stateEncoder) value(v reflect.Value, depth int) error {
	switch asStruct, asSlice := walks(v.Type(), depth); {
	case asStruct:
		e.buf.WriteByte('{')
		first := true
		for _, f := range streamFields(v.Type()) {
			fv := v.Field(f.index)
			live := e.live != nil && fv.Type() == profileStates
			if f.omitEmpty && ((live && e.live.Len() == 0) || (!live && isEmptyValue(fv))) {
				continue
			}
			if !first {
				e.buf.WriteByte(',')
			}
			first = false
			if err := e.whole(f.name); err != nil {
				return err
			}
			e.buf.WriteByte(':')
			var err error
			if live {
				err = e.liveProfiles()
			} else {
				err = e.value(fv, depth-1)
			}
			if err != nil {
				return err
			}
		}
		e.buf.WriteByte('}')
	case asSlice && !v.IsNil():
		e.buf.WriteByte('[')
		for i := 0; i < v.Len(); i++ {
			if i > 0 {
				e.buf.WriteByte(',')
			}
			// By address, as json reaches a slice's elements.
			if err := e.whole(v.Index(i).Addr().Interface()); err != nil {
				return err
			}
		}
		e.buf.WriteByte(']')
	default:
		return e.whole(v.Interface())
	}
	return nil
}

// liveProfiles writes the live store's profiles in insertion order as the
// walk writes a []profile.State: one element, then the flush check.
func (e *stateEncoder) liveProfiles() error {
	e.buf.WriteByte('[')
	first := true
	var err error
	e.live.Each(func(p *profile.Profile) {
		if err != nil {
			return
		}
		if !first {
			e.buf.WriteByte(',')
		}
		first = false
		e.buf.Write(p.AppendSnapshotJSON(e.buf.AvailableBuffer()))
		err = e.flush()
	})
	if err != nil {
		return err
	}
	e.buf.WriteByte(']')
	return nil
}

// whole appends json.Marshal(v) to the output, and writes it out once
// there are 64 KiB of it.
func (e *stateEncoder) whole(v any) error {
	if err := e.enc.Encode(v); err != nil {
		return err
	}
	e.buf.Truncate(e.buf.Len() - 1) // Encode ends every value with a newline
	return e.flush()
}

// flush writes the output out once there are 64 KiB of it.
func (e *stateEncoder) flush() error {
	if e.buf.Len() < 64<<10 {
		return nil
	}
	_, err := e.w.Write(e.buf.Bytes())
	e.buf.Reset()
	return err
}

// isEmptyValue is encoding/json's omitempty rule, for the kinds it encodes.
func isEmptyValue(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Map, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Struct:
		return false
	}
	return v.IsZero()
}

// decodeValue reads one JSON value into v the way json.Unmarshal does — null
// leaves a struct alone and makes a slice nil; keys match exactly, else
// under case folding; unknown keys are passed over; a repeated key decodes
// again over what the first left; an array refills a slice from index 0 in
// the memory it has, and an empty one leaves it empty, not nil — taking the
// value apart as stateEncoder.value put it together.
func decodeValue(dec *json.Decoder, v reflect.Value, depth int) error {
	asStruct, asSlice := walks(v.Type(), depth)
	if !asStruct && !asSlice {
		return dec.Decode(v.Addr().Interface())
	}
	var fields []streamField
	if asStruct {
		fields = streamFields(v.Type())
	}
	switch tok, err := dec.Token(); {
	case err != nil:
		return err
	case tok == nil:
		if asSlice {
			v.SetZero()
		}
		return nil
	case (asStruct && tok != json.Delim('{')) || (asSlice && tok != json.Delim('[')):
		return fmt.Errorf("cannot read %v into a %s", tok, v.Type())
	}
	n := 0
	for ; dec.More(); n++ {
		var err error
		if asSlice {
			if n >= v.Cap() {
				v.Grow(1)
			}
			if n >= v.Len() {
				v.SetLen(n + 1)
			}
			err = dec.Decode(v.Index(n).Addr().Interface())
		} else if key, kerr := dec.Token(); kerr != nil {
			err = kerr
		} else if f := matchField(fields, key); f != nil {
			err = decodeValue(dec, v.Field(f.index), depth-1)
		} else {
			err = skipValue(dec)
		}
		if err != nil {
			return err
		}
	}
	if asSlice && n == 0 {
		v.Set(reflect.MakeSlice(v.Type(), 0, 0))
	} else if asSlice {
		v.SetLen(n)
	}
	_, err := dec.Token() // the closing delimiter, or why there is none
	return err
}

// matchField finds the field an object key names: the one with exactly that
// name, else the first with that name under case folding.
func matchField(fields []streamField, key json.Token) (folded *streamField) {
	name, _ := key.(string) // More saw neither } nor ], so Token took a key
	for i := range fields {
		if fields[i].name == name {
			return &fields[i]
		} else if folded == nil && strings.EqualFold(fields[i].name, name) {
			folded = &fields[i]
		}
	}
	return folded
}

// skipValue consumes one value of any shape, a token at a time.
func skipValue(dec *json.Decoder) error {
	for depth := 0; ; {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		switch tok {
		case json.Delim('{'), json.Delim('['):
			depth++
		case json.Delim('}'), json.Delim(']'):
			depth--
		}
		if depth == 0 {
			return nil
		}
	}
}
