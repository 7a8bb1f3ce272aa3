"""Deterministic interleaving explorer and serializability oracle.

Layers (each importable on its own; the kernel itself imports none of
them -- its yield points are :mod:`repro.probe` hooks):

* :mod:`repro.verify.scheduler` -- the cooperative scheduler, the probe
  observer that turns thread interleaving into an explicit, replayable
  decision sequence.
* :mod:`repro.verify.model` -- the sequential reference model of the
  paper's versioning semantics.
* :mod:`repro.verify.oracle` -- history recording and the
  serializability + snapshot-visibility check.
* :mod:`repro.verify.scenarios` / :mod:`repro.verify.explorer` -- the
  concurrency scenarios and the bounded-exhaustive / seeded-random
  schedule explorer (CLI: ``python -m repro.tools.explore``).
"""
