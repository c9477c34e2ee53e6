"""Runtime verification tools pluggable into SMACS (§V).

The Token Service can attach arbitrary validation logic to token issuance.
This subpackage provides the two case studies of the paper plus supporting
infrastructure.  Both case studies simulate the candidate call off-chain with
:meth:`~repro.chain.chain.Blockchain.simulate` -- a transaction the node rolls
back -- and judge its receipt:

* :mod:`repro.verification.hydra` -- Hydra-style N-of-N-version uniformity:
  a token is issued only when all independent heads agree on the outcome;
* :mod:`repro.verification.ecf_checker` -- an ECFChecker-style detector of
  executions that are not effectively callback-free (re-entrancy), used to
  protect the vulnerable ``Bank`` contract after deployment;
* :mod:`repro.verification.static_scan` -- a lightweight static scanner that
  supports the "scan regularly and blacklist dangerous patterns" workflow of
  §VIII.
"""

from repro.verification.hydra import HydraCoordinator, HydraUniformityRule
from repro.verification.ecf_checker import ECFChecker, ECFTokenRule, ECFViolation
from repro.verification.static_scan import StaticScanner, ScanFinding

__all__ = [
    "HydraCoordinator",
    "HydraUniformityRule",
    "ECFChecker",
    "ECFTokenRule",
    "ECFViolation",
    "StaticScanner",
    "ScanFinding",
]
