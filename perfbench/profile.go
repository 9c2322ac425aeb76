package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// layerOf names the layer a CPU sample is charged to. frames run from the
// innermost call outwards; the innermost frame in a kindle/internal package
// names the layer (so compress/flate under the trace decoder counts as
// trace), and a stack with no such frame is charged to the Go runtime.
func layerOf(frames []string) string {
	for _, fn := range frames {
		if rest, ok := strings.CutPrefix(fn, "kindle/internal/"); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
			return rest
		}
	}
	return "runtime"
}

// profileLayers decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and sums its CPU time per layer (see layerOf).
//
// Only the handful of profile.proto fields needed to rebuild each sample's
// stack are read: Profile.sample_type (1), sample (2), location (4),
// function (5) and string_table (6).
func profileLayers(gz []byte) (map[string]time.Duration, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var (
		units   []int64 // string index of each sample type's unit
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // ValueType{type = 1, unit = 2}
			var unit int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 2 {
					unit = int64(v)
				}
				return nil
			})
			units = append(units, unit)
			return err
		case 2: // Sample{location_id = 1, value = 2}
			var s sample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				var err error
				switch num {
				case 1:
					s.locs, err = appendVarints(s.locs, v, b)
				case 2:
					s.vals, err = appendVarints(s.vals, v, b)
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // Location{id = 1, line = 4}; Line{function_id = 1}
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function{id = 1, name = 2}
			var id uint64
			var name int64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	str := func(i int64) string {
		if i < 0 || i >= int64(len(strs)) {
			return ""
		}
		return strs[i]
	}
	nsIdx := -1
	for i, u := range units {
		if str(u) == "nanoseconds" {
			nsIdx = i
		}
	}
	if nsIdx < 0 {
		return nil, errors.New("profile: no nanoseconds sample type")
	}
	layers := map[string]time.Duration{}
	var frames []string
	for _, s := range samples {
		if nsIdx >= len(s.vals) {
			return nil, errors.New("profile: sample lacks its nanoseconds value")
		}
		frames = frames[:0]
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				frames = append(frames, str(fnName[fn]))
			}
		}
		layers[layerOf(frames)] += time.Duration(s.vals[nsIdx])
	}
	return layers, nil
}

// eachField walks the fields of one protobuf message. fn gets the field
// number and, by wire type, either the varint value or the bytes of a
// length-delimited field; fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("truncated fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("truncated length-delimited field")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("truncated fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value when
// the field came unpacked (packed is nil), all of packed otherwise.
func appendVarints(dst []uint64, v uint64, packed []byte) ([]uint64, error) {
	if packed == nil {
		return append(dst, v), nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst, nil
}
