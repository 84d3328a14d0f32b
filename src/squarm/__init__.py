"""Deterministic simulator for decentralized momentum SGD with compression,
local iterations, and event-triggered communication."""
