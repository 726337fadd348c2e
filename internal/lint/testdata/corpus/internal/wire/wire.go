// Package wire is a corpus stub of the real wire package: same import path,
// same shape (a Kind enum with a KInvalid sentinel and a Msg interface with
// concrete implementations), tiny vocabulary.
package wire

type Kind uint8

const (
	KInvalid Kind = iota
	KSubmit
	KResult
	KComplete
)

type Msg interface{ Kind() Kind }

type Submit struct{}

func (*Submit) Kind() Kind { return KSubmit }

type Result struct{}

func (*Result) Kind() Kind { return KResult }

type Complete struct{}

func (*Complete) Kind() Kind { return KComplete }
