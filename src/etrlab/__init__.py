"""Desk-scale lab for clipped policy-gradient training with elastic trust regions."""
