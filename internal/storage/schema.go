package storage

import (
	"fmt"
	"strings"
)

// Column describes one attribute of a schema.
type Column struct {
	Name string
	Type Kind
}

// Schema is an ordered list of columns. Column names are case-sensitive and
// unique within a schema. A schema is immutable once built: plan nodes and
// the tables they produce share one pointer and never write Columns.
type Schema struct {
	Columns []Column
}

// NewSchema builds a schema from columns, validating uniqueness.
func NewSchema(cols ...Column) (*Schema, error) {
	seen := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.Name == "" {
			return nil, fmt.Errorf("storage: empty column name")
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("storage: duplicate column %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &Schema{Columns: cols}, nil
}

// MustSchema is NewSchema that panics on error; intended for static schemas
// in generators and tests.
func MustSchema(cols ...Column) *Schema {
	s, err := NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of columns.
func (s *Schema) Len() int { return len(s.Columns) }

// Index returns the position of the named column, or -1.
func (s *Schema) Index(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Has reports whether the schema contains the named column.
func (s *Schema) Has(name string) bool { return s.Index(name) >= 0 }

// Names returns the column names in order.
func (s *Schema) Names() []string {
	names := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		names[i] = c.Name
	}
	return names
}

// Concat returns the concatenation of two schemas, renaming collisions on the
// right side with the given prefix (e.g. "r_" for join right inputs).
func (s *Schema) Concat(other *Schema, collisionPrefix string) (*Schema, error) {
	cols := make([]Column, 0, len(s.Columns)+len(other.Columns))
	cols = append(cols, s.Columns...)
	for _, c := range other.Columns {
		name := c.Name
		for i := 0; s.Has(name) || hasCol(cols[len(s.Columns):], name); i++ {
			name = collisionPrefix + c.Name
			if i > 0 {
				name = fmt.Sprintf("%s%s_%d", collisionPrefix, c.Name, i)
			}
		}
		cols = append(cols, Column{Name: name, Type: c.Type})
	}
	return NewSchema(cols...)
}

func hasCol(cols []Column, name string) bool {
	for _, c := range cols {
		if c.Name == name {
			return true
		}
	}
	return false
}

// String renders the schema as "(a int, b string)".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteByte('(')
	for i, c := range s.Columns {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
		b.WriteByte(' ')
		b.WriteString(c.Type.String())
	}
	b.WriteByte(')')
	return b.String()
}
