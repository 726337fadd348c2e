// Package pairwisecase exercises pairwise's finished funnel.
package pairwisecase

type task struct{ finished bool }

func finishA(t *task) {
	t.finished = true // want "funnel every transition"
}

func finishB(t *task) {
	t.finished = true // want "funnel every transition"
}

type job struct{ finished bool }

// finishJob is the only finished-writer for job: a proper funnel.
func finishJob(j *job) {
	if !j.finished {
		j.finished = true
	}
}
