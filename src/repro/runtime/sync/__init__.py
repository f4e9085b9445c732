"""The synchronous round model: devices, systems, executor, behaviors,
and Byzantine adversaries (including the Fault-axiom replay device)."""

from .adversary import (
    CrashDevice,
    DelayedEchoDevice,
    RandomLiarDevice,
    ReplayDevice,
    SilentDevice,
    TwoFacedDevice,
)
from .collapse import (
    GroupDevice,
    PortRenamedDevice,
    collapse_system,
    verify_collapse,
)
from .behavior import EdgeBehavior, NodeBehavior, Scenario, SyncBehavior
from .device import (
    FunctionDevice,
    Message,
    NodeContext,
    PortLabel,
    State,
    SyncDevice,
)
from .executor import ExecutionError, check_determinism, execute_plan, run
from .system import (
    NodeAssignment,
    SyncSystem,
    install_in_covering,
    make_system,
    uniform_system,
)

__all__ = [
    "CrashDevice",
    "GroupDevice",
    "PortRenamedDevice",
    "collapse_system",
    "verify_collapse",
    "DelayedEchoDevice",
    "EdgeBehavior",
    "ExecutionError",
    "FunctionDevice",
    "Message",
    "NodeAssignment",
    "NodeBehavior",
    "NodeContext",
    "PortLabel",
    "RandomLiarDevice",
    "ReplayDevice",
    "Scenario",
    "SilentDevice",
    "State",
    "SyncBehavior",
    "SyncDevice",
    "SyncSystem",
    "TwoFacedDevice",
    "check_determinism",
    "execute_plan",
    "install_in_covering",
    "make_system",
    "run",
    "uniform_system",
]
