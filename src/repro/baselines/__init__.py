"""Classical (symbolic) ER baseline — the Magellan comparator of Table 4."""
from repro.baselines.magellan_lite import MagellanLite

__all__ = ["MagellanLite"]
