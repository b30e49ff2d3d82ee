package netproto

import (
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"

	"secureangle/internal/journal"
)

// Token-based AP enrollment. The controller mints one bearer token per
// AP name; the agent presents it in the Hello and the controller
// answers with a Welcome status byte. Only token digests are kept —
// the plaintext exists once, in EnrollAP's return value — so a
// controller snapshot or debugger can't leak fleet credentials.
// Whether a session with an empty token is accepted is the RequireAuth
// knob: false keeps the port open to unenrolled agents, true closes it
// to everything but enrolled APs.

// ErrAuthRejected is returned by the dialing helpers when the
// controller's Welcome carries WelcomeAuthRejected: the token was
// missing, unknown, or revoked and the controller requires
// authentication.
var ErrAuthRejected = errors.New("netproto: enrollment token rejected")

// tokenBytes is the entropy of a minted token (hex-encoded on the
// wire: 32 characters).
const tokenBytes = 16

// EnrollAP mints a fresh bearer token for the named AP and stores its
// digest. The plaintext token is returned exactly once; re-enrolling
// an already-enrolled name rotates its token (the old one stops
// validating immediately).
func (c *Controller) EnrollAP(name string) (string, error) {
	if name == "" {
		return "", errors.New("netproto: enroll: empty AP name")
	}
	var raw [tokenBytes]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", fmt.Errorf("netproto: enroll: %w", err)
	}
	token := hex.EncodeToString(raw[:])
	digest := sha256.Sum256([]byte(token))
	c.mu.Lock()
	if c.tokens == nil {
		c.tokens = make(map[string][sha256.Size]byte)
	}
	c.tokens[name] = digest
	c.mu.Unlock()
	// Enrollment mutations are MAC-less, so they live in partition 0's
	// journal: a restart (or a streaming standby) rebuilds the token
	// table and the fleet's credentials survive failover.
	c.journalAppendTo(0, journal.RecEnroll, journal.EncodeEnroll(journal.EnrollEvent{Name: name, Digest: digest[:]}))
	return token, nil
}

// RevokeAP deletes the named AP's enrollment. Sessions already
// established keep running — revocation gates the next handshake, the
// usual bearer-token contract — but a controller that wants the AP
// gone now can additionally drop its connection.
func (c *Controller) RevokeAP(name string) bool {
	c.mu.Lock()
	_, ok := c.tokens[name]
	if ok {
		delete(c.tokens, name)
	}
	c.mu.Unlock()
	if ok {
		// An empty digest is the journal's revocation form.
		c.journalAppendTo(0, journal.RecEnroll, journal.EncodeEnroll(journal.EnrollEvent{Name: name}))
	}
	return ok
}

// EnrolledAPs lists enrolled AP names, sorted.
func (c *Controller) EnrolledAPs() []string {
	c.mu.Lock()
	names := make([]string, 0, len(c.tokens))
	for n := range c.tokens {
		names = append(names, n)
	}
	c.mu.Unlock()
	sort.Strings(names)
	return names
}

// authorize decides whether a Hello may open a session. A presented
// token must validate even when auth is optional (a wrong token is a
// misconfigured or probing peer); an absent token is
// acceptable exactly when RequireAuth is off. Observers (empty Name)
// have no identity to look a token up under, so with auth required
// they must present some enrolled AP's token.
func (c *Controller) authorize(h Hello) (bool, string) {
	c.mu.Lock()
	required := c.RequireAuth
	var want [sha256.Size]byte
	enrolled := false
	var all [][sha256.Size]byte
	if h.Token != "" {
		if h.Name == "" {
			all = make([][sha256.Size]byte, 0, len(c.tokens))
			for _, d := range c.tokens {
				all = append(all, d)
			}
		} else {
			want, enrolled = c.tokens[h.Name]
		}
	}
	c.mu.Unlock()

	if h.Token == "" {
		if required {
			return false, "authentication required"
		}
		return true, ""
	}
	got := sha256.Sum256([]byte(h.Token))
	if h.Name == "" {
		for _, d := range all {
			if subtle.ConstantTimeCompare(got[:], d[:]) == 1 {
				return true, ""
			}
		}
		return false, "observer token not recognised"
	}
	if !enrolled {
		return false, "AP not enrolled"
	}
	if subtle.ConstantTimeCompare(got[:], want[:]) != 1 {
		return false, "bad token"
	}
	return true, ""
}
