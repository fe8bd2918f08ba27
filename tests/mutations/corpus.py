"""Seeded mutations of the real tree: what each checker is expected to catch.

Each record is one plausible bug, written as an exact text substitution in
one file of the repository: ``old`` must occur exactly once in ``file`` and is
replaced by ``new``.  ``category`` is one of :data:`CATEGORIES`, the nine
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
    "ledger-retry",
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
        "service-stats-two-locks-wrong-order",
        "lock-order",
        "src/repro/service/core.py",
        "        if self._ledger_breaker is not None:\n"
        '            stats["ledger_breaker"] = self._ledger_breaker.stats()\n',
        "        if self._ledger_breaker is not None:\n"
        "            with self._ledger_breaker._lock, self.registry.lock:\n"
        '                stats["requests"] = self._requests\n'
        '            stats["ledger_breaker"] = self._ledger_breaker.stats()\n',
    ),
    Mutation(
        "measure-lock-below-combine",
        "lock-order",
        "src/repro/core/queryable.py",
        'ordered_rlock("core.measure", 40, io_ok=True)',
        'ordered_rlock("core.measure", 8, io_ok=True)',
    ),
    Mutation(
        "combine-lock-above-state",
        "lock-order",
        "src/repro/service/core.py",
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
        "registry-miss-reads-store-under-lock",
        "blocking-under-lock",
        "src/repro/service/registry.py",
        "        with self._lock:\n"
        "            hosted = self._sessions.get(name)\n",
        "        with self._lock:\n"
        "            hosted = self._sessions.get(name)\n"
        "            if hosted is None and self._store is not None:\n"
        "                payload = self._store.get_session(name)\n"
        "                if payload is not None:\n"
        "                    hosted = self._materialize(name, payload)\n"
        "                    self._sessions[name] = hosted\n",
    ),
    Mutation(
        "combine-lock-not-io-ok",
        "blocking-under-lock",
        "src/repro/service/core.py",
        'ordered_lock("service.combine", 9, io_ok=True)',
        'ordered_lock("service.combine", 9)',
    ),
    Mutation(
        "rate-limiter-sleeps-under-lock",
        "blocking-under-lock",
        "src/repro/service/ratelimit.py",
        "        if tokens >= 1.0:\n",
        "        if 0.0 < 1.0 - tokens < 0.005 * self.rate:\n"
        "            time.sleep((1.0 - tokens) / self.rate)  # a short wait beats a refusal\n"
        "            tokens = 1.0\n"
        "        if tokens >= 1.0:\n",
    ),
    Mutation(
        "state-lock-held-across-measure",
        "blocking-under-lock",
        "src/repro/service/core.py",
        "                try:\n"
        "                    released = self._measure(\n"
        "                        hosted, queryable, query, epsilon, deadline\n"
        "                    )\n",
        "                try:\n"
        "                    with self.registry.lock:\n"
        "                        released = self._measure(\n"
        "                            hosted, queryable, query, epsilon, deadline\n"
        "                        )\n",
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
        "ledger-charge-without-lock",
        "dropped-budget-lock",
        "src/repro/core/budget.py",
        "        with self._lock:\n"
        "            budgets = {name: self.budget_for(name) for name in validated}\n",
        "        if True:\n"
        "            budgets = {name: self.budget_for(name) for name in validated}\n",
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
        "        with self._lock:\n"
        "            budgets = {name: self.budget_for(name) for name in validated}\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n"
        "                if not budget.can_afford(cost):\n"
        "                    raise BudgetExceededError(cost, budget.remaining, source=name)\n",
        "        budgets = {name: self.budget_for(name) for name in validated}\n"
        "        for name, cost in validated.items():\n"
        "            budget = budgets[name]\n"
        "            if not budget.can_afford(cost):\n"
        "                raise BudgetExceededError(cost, budget.remaining, source=name)\n"
        "        with self._lock:\n",
    ),
    Mutation(
        "ledger-check-against-stale-snapshot",
        "check-then-act",
        "src/repro/core/budget.py",
        "        with self._lock:\n"
        "            budgets = {name: self.budget_for(name) for name in validated}\n"
        "            for name, cost in validated.items():\n"
        "                budget = budgets[name]\n"
        "                if not budget.can_afford(cost):\n",
        "        left = {name: self.remaining(name) for name in validated}\n"
        "        with self._lock:\n"
        "            budgets = {name: self.budget_for(name) for name in validated}\n"
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
        "                yield\n",
        'self._conn.execute("BEGIN")\n'
        "            try:\n"
        "                yield\n",
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
    # ------------------------------------------------------------------
    # ledger-retry: a failed charge retried after it may have committed, or
    # a transient one never retried
    # ------------------------------------------------------------------
    Mutation(
        "ledger-retry-after-commit",
        "ledger-retry",
        "src/repro/service/core.py",
        '            "wal.pre_commit",\n'
        "        )\n",
        '            "wal.pre_commit",\n'
        '            "wal.post_commit",\n'
        "        )\n",
    ),
    Mutation(
        "ledger-retry-never",
        "ledger-retry",
        "src/repro/service/core.py",
        "        if isinstance(exc, sqlite3.OperationalError):\n"
        "            return True\n",
        "        return False\n",
    ),
)
