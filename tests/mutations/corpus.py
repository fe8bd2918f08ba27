"""Seeded mutations of the real tree: what each checker is expected to catch.

Each record is one plausible bug, written as an exact text substitution in
one file of the repository: ``old`` must occur exactly once in ``file`` and is
replaced by ``new``.  ``category`` is one of :data:`CATEGORIES`, the eight
invariant families the checkers claim to guard.  ``run.py`` applies one
record at a time to a scratch copy of the tree and runs every checker on it.
"""

from __future__ import annotations

from dataclasses import dataclass

CATEGORIES = (
    "lock-order",
    "blocking-under-lock",
    "dropped-budget-lock",
    "check-then-act",
    "unseeded-rng",
    "weight-leak",
    "undercharged-epsilon",
    "lambda-in-plan",
)


@dataclass(frozen=True)
class Mutation:
    name: str
    category: str
    file: str
    old: str
    new: str


MUTATIONS: tuple[Mutation, ...] = (
    # ------------------------------------------------------------------
    # lock-order: an acquisition that contradicts the declared hierarchy
    # ------------------------------------------------------------------
    Mutation(
        "ledger-charge-unsorted",
        "lock-order",
        "src/repro/core/budget.py",
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]",
        "            for name in budgets:\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]",
    ),
    Mutation(
        "ledger-report-unsorted",
        "lock-order",
        "src/repro/core/budget.py",
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, budget in budgets.items():",
        "            for name in budgets:\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, budget in budgets.items():",
    ),
    Mutation(
        "scheduler-stats-two-locks-wrong-order",
        "lock-order",
        "src/repro/service/scheduler.py",
        "        with self._lock:\n"
        "            stats = {\n",
        "        with self._cache._lock, self._lock:\n"
        "            stats = {\n",
    ),
    Mutation(
        "measure-lock-below-session",
        "lock-order",
        "src/repro/core/queryable.py",
        'ordered_rlock("core.measure", 40, io_ok=True)',
        'ordered_rlock("core.measure", 12, io_ok=True)',
    ),
    Mutation(
        "session-lock-below-registry",
        "lock-order",
        "src/repro/service/registry.py",
        'ordered_rlock("service.session", 14)',
        'ordered_rlock("service.session", 9)',
    ),
    Mutation(
        "combine-lock-above-registry",
        "lock-order",
        "src/repro/service/scheduler.py",
        'ordered_lock("service.combine", 9, io_ok=True)',
        'ordered_lock("service.combine", 12, io_ok=True)',
    ),
    Mutation(
        "store-mutex-below-measure",
        "lock-order",
        "src/repro/persistence/wal.py",
        'ordered_rlock("persistence.wal", 70, io_ok=True)',
        'ordered_rlock("persistence.wal", 35, io_ok=True)',
    ),
    Mutation(
        "faults-lock-below-store",
        "lock-order",
        "src/repro/resilience/faults.py",
        'ordered_lock("resilience.faults", 90)',
        'ordered_lock("resilience.faults", 65)',
    ),
    # ------------------------------------------------------------------
    # blocking-under-lock: I/O or sleep while holding a non-io-ok lock
    # ------------------------------------------------------------------
    Mutation(
        "breaker-sleeps-under-lock",
        "blocking-under-lock",
        "src/repro/resilience/policy.py",
        "            if was_open:\n"
        "                # Failed half-open probe: restart the full open window.\n",
        "            if was_open:\n"
        "                time.sleep(0.001)  # let the dependency settle\n"
        "                # Failed half-open probe: restart the full open window.\n",
    ),
    Mutation(
        "store-mutex-not-io-ok",
        "blocking-under-lock",
        "src/repro/persistence/wal.py",
        'ordered_rlock("persistence.wal", 70, io_ok=True)',
        'ordered_rlock("persistence.wal", 70)',
    ),
    Mutation(
        "measure-lock-not-io-ok",
        "blocking-under-lock",
        "src/repro/core/queryable.py",
        'ordered_rlock("core.measure", 40, io_ok=True)',
        'ordered_rlock("core.measure", 40)',
    ),
    Mutation(
        "pool-shutdown-lock-not-io-ok",
        "blocking-under-lock",
        "src/repro/shard/pool.py",
        'ordered_lock("shard.pool.shutdown", 30, io_ok=True)',
        'ordered_lock("shard.pool.shutdown", 30)',
    ),
    Mutation(
        "registry-lock-not-io-ok",
        "blocking-under-lock",
        "src/repro/service/registry.py",
        'ordered_rlock("service.registry", 10, io_ok=True)',
        'ordered_rlock("service.registry", 10)',
    ),
    Mutation(
        "combine-lock-not-io-ok",
        "blocking-under-lock",
        "src/repro/service/scheduler.py",
        'ordered_lock("service.combine", 9, io_ok=True)',
        'ordered_lock("service.combine", 9)',
    ),
    Mutation(
        "rate-limiter-sleeps-under-lock",
        "blocking-under-lock",
        "src/repro/persistence/ratelimit.py",
        "            retry_after = bucket.try_acquire()\n",
        "            retry_after = bucket.try_acquire()\n"
        "            if 0.0 < retry_after < 0.005:\n"
        "                time.sleep(retry_after)  # a short wait beats a refusal\n"
        "                retry_after = bucket.try_acquire()\n",
    ),
    # ------------------------------------------------------------------
    # dropped-budget-lock: budget state mutated without its lock
    # ------------------------------------------------------------------
    Mutation(
        "budget-charge-without-lock",
        "dropped-budget-lock",
        "src/repro/core/budget.py",
        "        epsilon = validate_epsilon(epsilon)\n"
        "        with self._lock:\n"
        "            if not self.can_afford(epsilon):\n"
        "                raise BudgetExceededError(epsilon, self.remaining)\n"
        "            self._spent += epsilon\n"
        "            self._charges.append(_Charge(epsilon, description))\n",
        "        epsilon = validate_epsilon(epsilon)\n"
        "        if not self.can_afford(epsilon):\n"
        "            raise BudgetExceededError(epsilon, self.remaining)\n"
        "        self._spent += epsilon\n"
        "        self._charges.append(_Charge(epsilon, description))\n",
    ),
    Mutation(
        "ledger-charge-without-budget-locks",
        "dropped-budget-lock",
        "src/repro/core/budget.py",
        "        with ExitStack() as stack:\n"
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n",
        "        with ExitStack():\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n",
    ),
    Mutation(
        "sync-spent-without-lock",
        "dropped-budget-lock",
        "src/repro/core/budget.py",
        "        with self._lock:\n"
        "            self._spent = max(self._spent, float(spent))\n",
        "        self._spent = max(self._spent, float(spent))\n",
    ),
    Mutation(
        "measure-without-session-lock",
        "dropped-budget-lock",
        "src/repro/core/queryable.py",
        "        with self._measure_lock:\n"
        "            # Last budget-safe deadline gate: past this point the batch is\n"
        "            # charged atomically and always runs to release, so an expired\n"
        "            # deadline must refuse *here* — consuming no ε — or not at all.\n"
        '            check_deadline("measurement admission (pre-charge)")\n'
        "            return execute_batch(self, requests)\n",
        '        check_deadline("measurement admission (pre-charge)")\n'
        "        return execute_batch(self, requests)\n",
    ),
    Mutation(
        "ledger-register-without-lock",
        "dropped-budget-lock",
        "src/repro/core/budget.py",
        "        with self._lock:\n"
        "            existing = self._budgets.get(name)\n",
        "        if True:\n"
        "            existing = self._budgets.get(name)\n",
    ),
    Mutation(
        "hosted-query-registration-without-lock",
        "dropped-budget-lock",
        "src/repro/service/registry.py",
        "        with self._lock:\n"
        "            if name in self._queries:\n",
        "        if True:\n"
        "            if name in self._queries:\n",
    ),
    # ------------------------------------------------------------------
    # check-then-act: affordability decided outside the charge's critical section
    # ------------------------------------------------------------------
    Mutation(
        "budget-check-outside-lock",
        "check-then-act",
        "src/repro/core/budget.py",
        "        epsilon = validate_epsilon(epsilon)\n"
        "        with self._lock:\n"
        "            if not self.can_afford(epsilon):\n"
        "                raise BudgetExceededError(epsilon, self.remaining)\n"
        "            self._spent += epsilon\n",
        "        epsilon = validate_epsilon(epsilon)\n"
        "        if not self.can_afford(epsilon):\n"
        "            raise BudgetExceededError(epsilon, self.remaining)\n"
        "        with self._lock:\n"
        "            self._spent += epsilon\n",
    ),
    Mutation(
        "ledger-check-before-locking",
        "check-then-act",
        "src/repro/core/budget.py",
        "        with ExitStack() as stack:\n"
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n"
        "                if not budget.can_afford(cost):\n"
        "                    raise BudgetExceededError(cost, budget.remaining, source=name)\n",
        "        for name, cost in validated.items():\n"
        "            budget = budgets[name]\n"
        "            if not budget.can_afford(cost):\n"
        "                raise BudgetExceededError(cost, budget.remaining, source=name)\n"
        "        with ExitStack() as stack:\n"
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n",
    ),
    Mutation(
        "ledger-check-against-stale-snapshot",
        "check-then-act",
        "src/repro/core/budget.py",
        "        with ExitStack() as stack:\n"
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n"
        "                if not budget.can_afford(cost):\n",
        "        left = {name: budget.remaining for name, budget in budgets.items()}\n"
        "        with ExitStack() as stack:\n"
        "            for name in sorted(budgets):\n"
        "                stack.enter_context(budgets[name].lock)\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n"
        "                if cost > left[name] + 1e-12:\n",
    ),
    Mutation(
        "store-deferred-transaction",
        "check-then-act",
        "src/repro/persistence/wal.py",
        'self._conn.execute("BEGIN IMMEDIATE")\n'
        "            try:\n"
        "                if self.fault_after_intent is not None:\n",
        'self._conn.execute("BEGIN")\n'
        "            try:\n"
        "                if self.fault_after_intent is not None:\n",
    ),
    Mutation(
        "store-reads-spend-before-transaction",
        "check-then-act",
        "src/repro/persistence/wal.py",
        "        with self._mutex:\n"
        '            self._conn.execute("BEGIN IMMEDIATE")\n'
        "            try:\n"
        "                if self.fault_after_intent is not None:\n"
        "                    self.fault_after_intent()\n"
        '                inject("wal.intent_commit")\n'
        "                current = self._budgets(scope)\n",
        "        with self._mutex:\n"
        "            current = self._budgets(scope)\n"
        '            self._conn.execute("BEGIN IMMEDIATE")\n'
        "            try:\n"
        "                if self.fault_after_intent is not None:\n"
        "                    self.fault_after_intent()\n"
        '                inject("wal.intent_commit")\n',
    ),
    # ------------------------------------------------------------------
    # unseeded-rng: a draw that is not a function of the session seed
    # ------------------------------------------------------------------
    Mutation(
        "laplace-ignores-seed",
        "unseeded-rng",
        "src/repro/core/laplace.py",
        "            self._rng = np.random.default_rng(rng)\n",
        "            self._rng = np.random.default_rng()\n",
    ),
    Mutation(
        "laplace-spawn-unseeded",
        "unseeded-rng",
        "src/repro/core/laplace.py",
        "        return LaplaceNoise(np.random.default_rng(seed))\n",
        "        return LaplaceNoise(np.random.default_rng())\n",
    ),
    Mutation(
        "laplace-global-state",
        "unseeded-rng",
        "src/repro/core/laplace.py",
        "        return float(self._rng.laplace(loc=0.0, scale=scale))\n",
        "        return float(np.random.laplace(loc=0.0, scale=scale))\n",
    ),
    Mutation(
        "exponential-mechanism-unseeded",
        "unseeded-rng",
        "src/repro/core/aggregation.py",
        "        rng = np.random.default_rng(rng)\n"
        "    scores = np.array(",
        "        rng = np.random.default_rng()\n"
        "    scores = np.array(",
    ),
    Mutation(
        "recovered-session-unseeded",
        "unseeded-rng",
        "src/repro/service/registry.py",
        "            seed = np.random.default_rng(\n"
        "                np.random.SeedSequence([int(seed), incarnation])\n"
        "            )\n",
        "            seed = np.random.default_rng()\n",
    ),
    Mutation(
        "mcmc-chain-unseeded",
        "unseeded-rng",
        "src/repro/inference/mcmc.py",
        "        self._propose = propose\n"
        "        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)\n",
        "        self._propose = propose\n"
        "        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng()\n",
    ),
    # ------------------------------------------------------------------
    # weight-leak: protected records or weights reach a log, exception,
    # response body or stdout
    # ------------------------------------------------------------------
    Mutation(
        "dataset-exception-names-weight",
        "weight-leak",
        "src/repro/core/dataset.py",
        '                    raise ValueError("dataset weights must be finite floats")\n',
        '                    raise ValueError(f"weight {weight!r} of {record!r} is not finite")\n',
    ),
    Mutation(
        "dataset-exception-dumps-weights",
        "weight-leak",
        "src/repro/core/dataset.py",
        '            raise TypeError("distance is only defined between WeightedDatasets")\n',
        '            raise TypeError(f"cannot compare {self._weights} with {other!r}")\n',
    ),
    Mutation(
        "dataset-logs-weights",
        "weight-leak",
        "src/repro/core/dataset.py",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        return dict(self._weights)\n",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        import logging\n"
        "\n"
        "        log = logging.getLogger(__name__)\n"
        '        log.info("%s", self._weights)\n'
        "        return dict(self._weights)\n",
    ),
    Mutation(
        "dataset-logs-laundered-snapshot",
        "weight-leak",
        "src/repro/core/dataset.py",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        return dict(self._weights)\n",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        import logging\n"
        "\n"
        "        snapshot = dict(self._weights)\n"
        "        log = logging.getLogger(__name__)\n"
        '        log.info("copied %s", snapshot)\n'
        "        return snapshot\n",
    ),
    Mutation(
        "dataset-logs-itself",
        "weight-leak",
        "src/repro/core/dataset.py",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        return dict(self._weights)\n",
        '        """Return a copy of the underlying ``record -> weight`` mapping."""\n'
        "        import logging\n"
        "\n"
        "        log = logging.getLogger(__name__)\n"
        '        log.info("copying %s", self)\n'
        "        return dict(self._weights)\n",
    ),
    Mutation(
        "dataflow-prints-output",
        "weight-leak",
        "src/repro/dataflow/engine.py",
        "        return self.collector(plan).current()\n",
        "        result = self.collector(plan).current()\n"
        "        print(result.to_dict())\n"
        "        return result\n",
    ),
    Mutation(
        "columnar-exception-dumps-weights",
        "weight-leak",
        "src/repro/columnar/dataset.py",
        "        if not np.isfinite(self.weights).all():\n"
        '            raise ValueError("dataset weights must be finite floats")\n',
        "        if not np.isfinite(self.weights).all():\n"
        '            raise ValueError(f"non-finite weights in {self.weights}")\n',
    ),
    # ------------------------------------------------------------------
    # undercharged-epsilon: a measurement charged below bound x epsilon
    # ------------------------------------------------------------------
    Mutation(
        "paths-counted-once",
        "undercharged-epsilon",
        "src/repro/core/plan.py",
        "            total[key] = total.get(key, 0) + value\n",
        "            total[key] = max(total.get(key, 0), value)\n",
    ),
    Mutation(
        "charge-ignores-bound",
        "undercharged-epsilon",
        "src/repro/core/measurement.py",
        "                costs[name] = costs.get(name, 0.0) + bound * request.epsilon\n",
        "                costs[name] = costs.get(name, 0.0) + request.epsilon\n",
    ),
    Mutation(
        "down-scale-squared",
        "undercharged-epsilon",
        "src/repro/core/plan.py",
        "        return self.factor\n",
        "        return self.factor * self.factor\n",
    ),
    Mutation(
        "partition-charges-min-part",
        "undercharged-epsilon",
        "src/repro/core/partition.py",
        "        new_max = max(pending.values(), default=0.0)\n",
        "        new_max = min(pending.values(), default=0.0)\n",
    ),
    Mutation(
        "join-stability-halved",
        "undercharged-epsilon",
        "src/repro/core/plan.py",
        '    params = ("left_key", "right_key", "result_selector")\n'
        "    stability = 1.0\n",
        '    params = ("left_key", "right_key", "result_selector")\n'
        "    stability = 0.5\n",
    ),
    Mutation(
        "dust-charges-dropped",
        "undercharged-epsilon",
        "src/repro/core/measurement.py",
        "    costs = {name: cost for name, cost in costs.items() if cost > 0.0}\n",
        "    costs = {name: cost for name, cost in costs.items() if cost > 1e-3}\n",
    ),
    # ------------------------------------------------------------------
    # lambda-in-plan: a closure where a portable spec belongs
    # ------------------------------------------------------------------
    Mutation(
        "symmetrize-lambda",
        "lambda-in-plan",
        "src/repro/analyses/common.py",
        "    return edges.select(Permute(1, 0)).concat(edges)\n",
        "    return edges.select(lambda edge: (edge[1], edge[0])).concat(edges)\n",
    ),
    Mutation(
        "wedges-lambda",
        "lambda-in-plan",
        "src/repro/analyses/clustering.py",
        '    return length_two_paths(edges).select(Constant("wedge"))\n',
        '    return length_two_paths(edges).select(lambda path: "wedge")\n',
    ),
    Mutation(
        "node-count-lambda",
        "lambda-in-plan",
        "src/repro/analyses/degrees.py",
        '    return nodes_from_edges(edges).select(Constant("node"))\n',
        '    return nodes_from_edges(edges).select(lambda node: "node")\n',
    ),
    Mutation(
        "cycles-closure",
        "lambda-in-plan",
        "src/repro/analyses/motifs.py",
        '    return closed.select(Constant(f"cycle-{cycle_length}"))\n',
        '    return closed.select(lambda cycle: f"cycle-{cycle_length}")\n',
    ),
    Mutation(
        "degree-ccdf-lambda",
        "lambda-in-plan",
        "src/repro/analyses/degrees.py",
        "    return edges.select(Field(0)).shave(1.0).select(Field(1))\n",
        "    return edges.select(lambda edge: edge[0]).shave(1.0).select(Field(1))\n",
    ),
    Mutation(
        "tbd-rotation-local-function",
        "lambda-in-plan",
        "src/repro/analyses/triangles.py",
        "    rotate_path = Permute(1, 2, 0, 3)\n",
        "    def rotate_path(record):\n"
        "        return (record[1], record[2], record[0], record[3])\n",
    ),
    Mutation(
        "node-degrees-key-lambda",
        "lambda-in-plan",
        "src/repro/analyses/common.py",
        "    return edges.group_by(key=Field(0), reducer=GroupSize(bucket))\n",
        "    return edges.group_by(key=lambda edge: edge[0], reducer=GroupSize(bucket))\n",
    ),
)
