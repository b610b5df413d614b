package pki

import (
	"encoding/pem"
	"errors"
	"fmt"
	"os"
	"strings"

	"e2eqos/internal/identity"
)

// PEM block types used by the tooling.
const (
	pemCertType = "CERTIFICATE"
	pemKeyType  = "PRIVATE KEY" // PKCS#8
)

// EncodeCertPEM renders a DER certificate as PEM.
func EncodeCertPEM(der []byte) []byte {
	return pem.EncodeToMemory(&pem.Block{Type: pemCertType, Bytes: der})
}

// DecodeCertPEM parses the first certificate block in data.
func DecodeCertPEM(data []byte) (*Certificate, error) {
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			return nil, fmt.Errorf("pki: no certificate block found")
		}
		if block.Type == pemCertType {
			return ParseCertificate(block.Bytes)
		}
	}
}

// EncodeKeyPEM renders a private key as a PKCS#8 PEM block.
func EncodeKeyPEM(key identity.PrivateKey) ([]byte, error) {
	der, err := identity.MarshalPrivateKey(key)
	if err != nil {
		return nil, fmt.Errorf("pki: %w", err)
	}
	return pem.EncodeToMemory(&pem.Block{Type: pemKeyType, Bytes: der}), nil
}

// DecodeKeyPEM parses the first private key block in data. A key block
// in another format ("EC PRIVATE KEY", "RSA PRIVATE KEY") is refused by
// name with identity.ErrKeyAlgorithm, not skipped.
func DecodeKeyPEM(data []byte) (identity.PrivateKey, error) {
	for {
		var block *pem.Block
		block, data = pem.Decode(data)
		if block == nil {
			return nil, fmt.Errorf("pki: no private key block found")
		}
		if block.Type == pemKeyType {
			key, err := identity.ParsePrivateKey(block.Bytes)
			if err != nil {
				return nil, fmt.Errorf("pki: %w", err)
			}
			return key, nil
		}
		if strings.HasSuffix(block.Type, pemKeyType) {
			return nil, fmt.Errorf("pki: %q block: %w", block.Type, identity.ErrKeyAlgorithm)
		}
	}
}

// LoadCertFile reads a PEM certificate from disk.
func LoadCertFile(path string) (*Certificate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pki: %w", err)
	}
	cert, err := DecodeCertPEM(data)
	return cert, fileError(path, err)
}

// fileError names the file, and the way out, when a file on disk was
// written for another signature algorithm: every tool reads its keys
// and certificates through here.
func fileError(path string, err error) error {
	if errors.Is(err, identity.ErrKeyAlgorithm) {
		return fmt.Errorf("%s: %w (re-issue with qosca)", path, err)
	}
	return err
}

// LoadKeyFile reads a PEM key from disk and binds it to the DN of
// the accompanying certificate when given; dn may be empty otherwise.
func LoadKeyFile(path string, dn identity.DN) (*identity.KeyPair, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("pki: %w", err)
	}
	key, err := DecodeKeyPEM(data)
	if err != nil {
		return nil, fileError(path, err)
	}
	return &identity.KeyPair{DN: dn, Private: key}, nil
}

// SaveCertFile writes a certificate as PEM with 0644 permissions.
func SaveCertFile(path string, der []byte) error {
	return os.WriteFile(path, EncodeCertPEM(der), 0o644)
}

// SaveKeyFile writes a private key as PEM with 0600 permissions.
func SaveKeyFile(path string, key identity.PrivateKey) error {
	data, err := EncodeKeyPEM(key)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o600)
}
