package graph

import "sync"

// Dictionary interns label/keyword strings to dense Label identifiers.
// It is safe for concurrent use.
type Dictionary struct {
	mu      sync.RWMutex
	byName  map[string]Label
	byLabel []string
}

// NewDictionary returns an empty Dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byName: map[string]Label{}}
}

// Intern returns the Label for name, assigning a fresh one on first use.
func (d *Dictionary) Intern(name string) Label {
	d.mu.RLock()
	l, ok := d.byName[name]
	d.mu.RUnlock()
	if ok {
		return l
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if l, ok := d.byName[name]; ok {
		return l
	}
	l = Label(len(d.byLabel))
	d.byName[name] = l
	d.byLabel = append(d.byLabel, name)
	return l
}

// internBytes is Intern for a name held in a reused buffer: only a name seen
// for the first time is copied.
func (d *Dictionary) internBytes(name []byte) Label {
	d.mu.RLock()
	l, ok := d.byName[string(name)]
	d.mu.RUnlock()
	if ok {
		return l
	}
	return d.Intern(string(name))
}

// Lookup returns the Label for name without creating it.
func (d *Dictionary) Lookup(name string) (Label, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	l, ok := d.byName[name]
	return l, ok
}

// Name returns the string form of l, or "" if l is unknown.
func (d *Dictionary) Name(l Label) string {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if l < 0 || int(l) >= len(d.byLabel) {
		return ""
	}
	return d.byLabel[l]
}

// Len returns the number of interned labels.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byLabel)
}
