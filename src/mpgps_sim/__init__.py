"""Multi-server packetized fair-queueing simulator for OFDM downlinks.

The package simulates a base station that serves fixed-size packets over an
OFDM downlink with several parallel transmission slots per frame, schedules
them by fluid-fair virtual-time stamps (with adaptive and opportunistic
variants that trade stamp order for transmit power), solves the joint
subcarrier-and-power assignment exactly for every frame, and audits runs
against the fluid reference schedule.
"""
from .allocation import (AllocationResult, TransportInstance, UnbalancedInstance,
                         ZeroGain, allocate_frame, composition_value, frame_powers,
                         solve_transport)
from .channel import (ChannelProcess, DomainError, LinkBudget, UserGeometry,
                      ber, link_budget, packet_error_rate, snr_target)
from .engine import (BoundCheck, BoundReport, Engine, FrameRecord, RunResult,
                     TrafficModel, run, verify_bounds)
from .metrics import Metrics, fairness_metric, service_curves
from .model import (FlowQueue, NonIntegralFrame, NonIntegralQuota, Packet,
                    SystemConfig, frame_length, group_size, subcarrier_quota)
from .scheduling import (AMPGPS, MODES, MPGPS, OMPGPS, PGPS, BoundViolation,
                         LagLedger, ScheduleDecision, ampgps_schedule,
                         compositions, ompgps_schedule, select_mpgps)
from .virtual_time import GpsReference, GpsTrace

__version__ = "0.1.0"

__all__ = [
    "AMPGPS", "AllocationResult", "BoundCheck", "BoundReport", "BoundViolation",
    "ChannelProcess", "DomainError", "Engine", "FlowQueue", "FrameRecord",
    "GpsReference", "GpsTrace", "LagLedger", "LinkBudget", "MODES", "MPGPS",
    "Metrics", "NonIntegralFrame", "NonIntegralQuota", "OMPGPS", "PGPS",
    "Packet", "RunResult", "ScheduleDecision", "SystemConfig", "TrafficModel",
    "TransportInstance", "UnbalancedInstance", "UserGeometry", "ZeroGain",
    "allocate_frame", "ampgps_schedule", "ber", "composition_value",
    "compositions", "fairness_metric", "frame_length", "frame_powers",
    "group_size", "link_budget", "ompgps_schedule", "packet_error_rate", "run",
    "select_mpgps", "service_curves", "snr_target", "solve_transport",
    "subcarrier_quota", "verify_bounds",
]
