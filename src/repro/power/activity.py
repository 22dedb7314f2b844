"""Switching-activity annotation.

Bridges the logic simulator and the power model: a
:class:`SwitchingActivity` object stores, for every net, the average number
of transitions per clock cycle and the static (logic-1) probability — the
same quantities a SAIF/VCD-based flow annotates onto the netlist before
power analysis.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..floatsum import ordered_sum
from ..netlist import Netlist
from .logicsim import LogicSimulator, SimulationResult
from .vectors import generate_vectors


@dataclass
class SwitchingActivity:
    """Per-net switching activity.

    Attributes:
        toggle_rates: Mapping net name -> average transitions per cycle.
        static_probabilities: Mapping net name -> probability of logic 1.
        net_order: Optional net-name alignment of :attr:`toggle_rate_array`;
            populated when the activity came from a compiled-engine
            simulation, letting the power model skip per-net dict lookups.
        toggle_rate_array: Toggle rates aligned with :attr:`net_order`.
    """

    toggle_rates: Dict[str, float] = field(default_factory=dict)
    static_probabilities: Dict[str, float] = field(default_factory=dict)
    net_order: Optional[List[str]] = field(default=None, repr=False)
    toggle_rate_array: Optional[np.ndarray] = field(default=None, repr=False)

    def toggle_rate(self, net: str, default: float = 0.0) -> float:
        """Toggle rate of ``net`` (transitions per cycle)."""
        return self.toggle_rates.get(net, default)

    def static_probability(self, net: str, default: float = 0.5) -> float:
        """Static probability of ``net`` being logic 1."""
        return self.static_probabilities.get(net, default)

    def aligned_toggle_rates(self, comp) -> np.ndarray:
        """Toggle rates as a vector aligned with a compiled netlist.

        Uses the stored array when its alignment matches; otherwise gathers
        from the dict (absent nets contribute ``0.0``, matching
        :meth:`toggle_rate`) and caches per compiled identity.
        """
        if self.toggle_rate_array is not None and (
            self.net_order is comp.net_names or self.net_order == comp.net_names
        ):
            return self.toggle_rate_array
        cache = getattr(self, "_aligned_cache", None)
        if cache is not None and cache[0]() is comp:
            return cache[1]
        rates = np.fromiter(
            (self.toggle_rates.get(name, 0.0) for name in comp.net_names),
            dtype=float,
            count=comp.num_nets,
        )
        # Weakly referenced so a long-lived activity never pins a compiled
        # netlist (and its whole design) that is otherwise dead.
        self._aligned_cache = (weakref.ref(comp), rates)
        return rates

    def scaled(self, factor: float) -> "SwitchingActivity":
        """Return a copy with every toggle rate multiplied by ``factor``."""
        if factor < 0.0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return SwitchingActivity(
            toggle_rates={net: rate * factor for net, rate in self.toggle_rates.items()},
            static_probabilities=dict(self.static_probabilities),
            net_order=self.net_order,
            toggle_rate_array=(
                self.toggle_rate_array * factor
                if self.toggle_rate_array is not None
                else None
            ),
        )

    def average_toggle_rate(self) -> float:
        """Mean toggle rate over all annotated nets."""
        if not self.toggle_rates:
            return 0.0
        return ordered_sum(self.toggle_rates.values()) / len(self.toggle_rates)

    @classmethod
    def from_simulation(cls, netlist: Netlist, result: SimulationResult) -> "SwitchingActivity":
        """Build the annotation from a :class:`SimulationResult`."""
        if result.net_order is not None and result.net_order == list(netlist.nets):
            counted = result.num_cycles
            if counted > 1:
                rate_array = result.toggle_array / float(
                    (counted - 1) * result.batch_size
                )
            else:
                rate_array = np.zeros(len(result.net_order))
            if result.total_samples > 0:
                prob_array = result.one_array / float(result.total_samples)
            else:
                prob_array = np.zeros(len(result.net_order))
            return cls(
                toggle_rates=dict(zip(result.net_order, rate_array.tolist())),
                static_probabilities=dict(zip(result.net_order, prob_array.tolist())),
                net_order=result.net_order,
                toggle_rate_array=rate_array,
            )
        toggles: Dict[str, float] = {}
        probs: Dict[str, float] = {}
        for net_name in netlist.nets:
            toggles[net_name] = result.toggle_rate(net_name)
            probs[net_name] = result.static_probability(net_name)
        return cls(toggle_rates=toggles, static_probabilities=probs)

    @classmethod
    def uniform(cls, netlist: Netlist, toggle_rate: float = 0.2,
                static_probability: float = 0.5) -> "SwitchingActivity":
        """Uniform activity on every net (a quick vectorless estimate)."""
        return cls(
            toggle_rates={net: toggle_rate for net in netlist.nets},
            static_probabilities={net: static_probability for net in netlist.nets},
        )


def estimate_activity(
    netlist: Netlist,
    toggle_probabilities: Optional[Mapping[str, float]] = None,
    num_cycles: int = 24,
    batch_size: int = 32,
    default_probability: float = 0.5,
    seed: int = 2010,
    warmup_cycles: int = 2,
) -> SwitchingActivity:
    """Run vector generation + logic simulation and return net activity.

    This is the convenience path corresponding to the paper's
    "VCS logic simulation of randomly generated test vectors" step.

    Args:
        netlist: Design to simulate.
        toggle_probabilities: Per-primary-input toggle probability (see
            :func:`repro.power.vectors.generate_vectors`).
        num_cycles: Simulated clock cycles.
        batch_size: Parallel random streams.
        default_probability: Toggle probability for unlisted inputs.
        seed: Random seed.
        warmup_cycles: Cycles excluded from the statistics.

    Returns:
        The per-net :class:`SwitchingActivity`.
    """
    vectors = generate_vectors(
        netlist,
        toggle_probabilities or {},
        num_cycles=num_cycles,
        batch_size=batch_size,
        default_probability=default_probability,
        seed=seed,
    )
    simulator = LogicSimulator(netlist)
    result = simulator.simulate(vectors, warmup_cycles=warmup_cycles)
    return SwitchingActivity.from_simulation(netlist, result)
