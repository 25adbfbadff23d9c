package core

import (
	"fmt"

	"github.com/treads-project/treads/internal/stats"
)

// Codebook maps innocuous-looking numeric codes to payload tokens. The
// provider generates it before a deployment and "can share the mapping of
// targeting information to encodings with users when they opt-in" (§3.1);
// the ad itself then carries only the code — Figure 1b's "2,830,120" — so
// the creative asserts nothing about the viewer and passes ad review.
type Codebook struct {
	byCode  map[string]string // code -> payload token
	byToken map[string]string // payload token -> code
}

// NewCodebook assigns a unique 7-digit code (rendered with thousands
// separators, like the figure) to every payload. Codes are drawn
// deterministically from the seed, so provider and opted-in users can also
// re-derive the book from a shared seed instead of shipping it.
func NewCodebook(payloads []Payload, seed uint64) (*Codebook, error) {
	rng := stats.NewRNG(seed)
	cb := &Codebook{
		byCode:  make(map[string]string, len(payloads)),
		byToken: make(map[string]string, len(payloads)),
	}
	for _, p := range payloads {
		tok := p.Token()
		if tok == "" {
			return nil, fmt.Errorf("core: payload with empty token: %+v", p)
		}
		if _, dup := cb.byToken[tok]; dup {
			return nil, fmt.Errorf("core: duplicate payload %q in codebook", tok)
		}
		var code string
		for {
			code = formatCode(1_000_000 + rng.Intn(9_000_000))
			if _, taken := cb.byCode[code]; !taken {
				break
			}
		}
		cb.byCode[code] = tok
		cb.byToken[tok] = code
	}
	return cb, nil
}

// formatCode renders a 7-digit number with comma separators: 2830120 ->
// "2,830,120".
func formatCode(n int) string {
	s := fmt.Sprintf("%d", n)
	var out []byte
	for i, c := range []byte(s) {
		if i > 0 && (len(s)-i)%3 == 0 {
			out = append(out, ',')
		}
		out = append(out, c)
	}
	return string(out)
}

// Code returns the code assigned to the payload, or "" if the payload is
// not in the book.
func (cb *Codebook) Code(p Payload) string { return cb.byToken[p.Token()] }

// Lookup resolves a code back to its payload.
func (cb *Codebook) Lookup(code string) (Payload, bool) {
	tok, ok := cb.byCode[code]
	if !ok {
		return Payload{}, false
	}
	p, err := ParseToken(tok)
	if err != nil {
		return Payload{}, false
	}
	return p, true
}

// Merge adds every entry of other into cb; conflicting assignments are an
// error. Crowdsourced providers merge the shard codebooks they receive.
func (cb *Codebook) Merge(other *Codebook) error {
	for code, tok := range other.byCode {
		if have, ok := cb.byCode[code]; ok && have != tok {
			return fmt.Errorf("core: codebook conflict on code %s", code)
		}
		if have, ok := cb.byToken[tok]; ok && have != code {
			return fmt.Errorf("core: codebook conflict on payload %s", tok)
		}
		cb.byCode[code] = tok
		cb.byToken[tok] = code
	}
	return nil
}

// EmptyCodebook returns a codebook with no entries (useful as a Merge
// target).
func EmptyCodebook() *Codebook {
	return &Codebook{byCode: make(map[string]string), byToken: make(map[string]string)}
}

// CodebookFromEntries reconstructs a codebook from an exported mapping,
// validating every token.
func CodebookFromEntries(entries map[string]string) (*Codebook, error) {
	cb := EmptyCodebook()
	for code, tok := range entries {
		if _, err := ParseToken(tok); err != nil {
			return nil, fmt.Errorf("core: entry %q: %w", code, err)
		}
		if have, dup := cb.byToken[tok]; dup && have != code {
			return nil, fmt.Errorf("core: token %q mapped to both %q and %q", tok, have, code)
		}
		cb.byCode[code] = tok
		cb.byToken[tok] = code
	}
	return cb, nil
}
