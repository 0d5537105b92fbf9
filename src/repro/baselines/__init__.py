"""State-of-the-art baseline algorithms re-implemented on the simulator.

Every baseline is a decomposition plus the engine that runs it on a machine;
the registered runners (:mod:`repro.algorithms.builtins`) join the two, and
``repro.multiply(..., algorithm=...)`` is how a caller runs one.

* :mod:`repro.baselines.summa` -- SUMMA, the 2D algorithm behind ScaLAPACK's
  ``PDGEMM`` (our ScaLAPACK stand-in): ``summa_decomposition`` and
  ``run_panels``.
* :mod:`repro.baselines.cannon` -- Cannon's 2D algorithm (square grids):
  ``cannon_decomposition`` and ``cannon_run``.
* :mod:`repro.baselines.grid25d` -- the 2.5D/3D decomposition of Solomonik &
  Demmel (our CTF stand-in): ``grid25d_decomposition`` and ``grid25d_run``.
* :mod:`repro.baselines.carma` -- the recursive CARMA decomposition of Demmel
  et al.: ``carma_table``, run by the cuboid executor.
* :mod:`repro.baselines.cuboid` -- a generic executor, ``cuboid_run``, that
  runs any cuboidal domain decomposition on the simulator (CARMA's, and
  hand-written tilings).
* :mod:`repro.baselines.costs` -- the analytic per-processor I/O costs of
  Table 3 for the baselines (COSMA's I/O row is Theorem 2).
"""
